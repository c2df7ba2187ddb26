import itertools
import math
from dataclasses import replace
from decimal import Decimal, getcontext

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    build_dataset,
    make_problem,
    prox_ternary_oracle,
    random_dataset,
    random_sparse_vec,
    sparse_from_pairs,
    to_dense,
    two_pass_vr,
)
from proxvr import problem as problem_mod
from proxvr.errors import ContractViolation
from proxvr.linalg import SparseVec
from proxvr.problem import (
    Dataset,
    LossKind,
    Problem,
    Regularizer,
    SparseExample,
    full_grad,
    minibatch_grad,
    objective_value,
    prox_elastic,
    stage_batches,
    vr_gradient,
)
from proxvr.seq_solvers import SolverConfig, draw_batch, prox_svrg_run

LN2 = 0.6931471805599453
# ln(1 + e^-2), cross-checked below against 60-digit decimal arithmetic
LOG1P_EXP_M2 = 0.1269280110429725


def _ex(pairs, d, b):
    return SparseExample(sparse_from_pairs(pairs, d), b)


# ---------------------------------------------------------------- losses
#
# One example's loss and gradient, from the kernels the solvers run: the
# objective of a one-row dataset with a zero regularizer, and its one-row
# mini-batch gradient.


def _one_row(pairs, d, b):
    return build_dataset([_ex(pairs, d, b)], d)


def _loss(kind, ds, x):
    return objective_value(kind, ds, Regularizer(), x)


def test_logistic_at_zero_is_ln2():
    ds = _one_row([(0, 1.0)], 2, 1.0)
    assert _loss(LossKind.LOGISTIC, ds, np.zeros(2)) == pytest.approx(LN2, abs=1e-15)


def test_least_squares_perfect_fit_is_zero():
    ds = _one_row([(0, 2.0)], 1, 3.0)
    assert _loss(LossKind.LEAST_SQUARES, ds, np.array([1.5])) == 0.0


def test_logistic_margin_two():
    ds = _one_row([(0, 1.0)], 1, 1.0)
    got = _loss(LossKind.LOGISTIC, ds, np.array([2.0]))
    assert got == pytest.approx(LOG1P_EXP_M2, abs=1e-15)
    getcontext().prec = 60
    oracle = float((1 + Decimal(-2).exp()).ln())
    assert got == pytest.approx(oracle, abs=1e-15)


def test_logistic_large_margin_no_overflow():
    ds = _one_row([(0, 1.0)], 1, 1.0)
    for t in (1e3, -1e3):
        v = _loss(LossKind.LOGISTIC, ds, np.array([t]))
        assert math.isfinite(v)
    assert _loss(LossKind.LOGISTIC, ds, np.array([-1e3])) == pytest.approx(1e3, rel=1e-12)


def test_logistic_grad_at_zero():
    ex = _ex([(0, 2.0), (2, -1.0)], 3, -1.0)
    g = minibatch_grad(LossKind.LOGISTIC, build_dataset([ex], 3), [0], np.zeros(3))
    # sigma(0) = 1/2, so grad = (-b/2) a
    assert np.allclose(g, 0.5 * to_dense(ex.a), atol=1e-15)


def test_least_squares_grad_stationary_is_empty():
    ds = _one_row([(0, 2.0)], 2, 3.0)
    g = minibatch_grad(LossKind.LEAST_SQUARES, ds, [0], np.array([1.5, 9.0]))
    assert g.tolist() == [0.0, 0.0]


def test_grad_support_inside_feature_support(rng):
    for _ in range(20):
        ex = SparseExample(random_sparse_vec(rng, 10, 0.4), 1.0)
        g = minibatch_grad(LossKind.LOGISTIC, build_dataset([ex], 10), [0],
                           rng.standard_normal(10))
        assert set(np.flatnonzero(g).tolist()) <= set(ex.a.indices.tolist())


def test_grad_matches_finite_differences(rng):
    h = 1e-6
    for kind in (LossKind.LOGISTIC, LossKind.LEAST_SQUARES):
        for _ in range(100):
            d = int(rng.integers(2, 10))
            ex = SparseExample(random_sparse_vec(rng, d, 0.7), float(rng.choice([-1.0, 1.0])))
            ds = build_dataset([ex], d)
            x = rng.standard_normal(d)
            g = minibatch_grad(kind, ds, [0], x)
            fd = np.zeros(d)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd[j] = (_loss(kind, ds, x + e) - _loss(kind, ds, x - e)) / (2 * h)
            denom = max(np.linalg.norm(g), 1e-8)
            assert np.linalg.norm(fd - g) / denom < 1e-5


# ---------------------------------------------------------------- batch / full


def _hand_dataset():
    d = 3
    exs = [
        _ex([(0, 1.0), (1, 2.0)], d, 1.0),
        _ex([(1, -1.0)], d, -1.0),
        _ex([(0, 0.5), (2, 1.0)], d, 1.0),
        _ex([(2, -2.0)], d, -1.0),
    ]
    return build_dataset(exs, d)


def test_minibatch_singleton_and_duplicates(rng):
    ds = _hand_dataset()
    x = rng.standard_normal(3)
    g1 = minibatch_grad(LossKind.LOGISTIC, ds, [2], x)
    one = build_dataset([ds.examples[2]], 3)
    assert np.array_equal(g1, full_grad(LossKind.LOGISTIC, one, x))
    g2 = minibatch_grad(LossKind.LOGISTIC, ds, [2, 2], x)
    assert np.array_equal(g1, g2)


def test_minibatch_full_batch_equals_full_grad(rng):
    ds = _hand_dataset()
    x = rng.standard_normal(3)
    gb = minibatch_grad(LossKind.LOGISTIC, ds, range(ds.n), x)
    gf = full_grad(LossKind.LOGISTIC, ds, x)
    assert np.array_equal(gb, gf)


def test_minibatch_rejects_empty_and_bad_indices():
    ds = _hand_dataset()
    with pytest.raises(ContractViolation):
        minibatch_grad(LossKind.LOGISTIC, ds, [], np.zeros(3))
    with pytest.raises(ContractViolation):
        minibatch_grad(LossKind.LOGISTIC, ds, [4], np.zeros(3))


def test_full_grad_single_example(rng):
    ds = _one_row([(0, 1.0)], 2, 1.0)
    x = rng.standard_normal(2)
    assert np.array_equal(
        full_grad(LossKind.LOGISTIC, ds, x),
        minibatch_grad(LossKind.LOGISTIC, ds, [0], x),
    )


def test_hand_dataset_full_grad_direct_sum(rng):
    ds = _hand_dataset()
    x = rng.standard_normal(3)
    direct = sum(
        minibatch_grad(LossKind.LEAST_SQUARES, ds, [i], x) for i in range(ds.n)
    ) / ds.n
    assert np.allclose(full_grad(LossKind.LEAST_SQUARES, ds, x), direct, atol=1e-14)


# ---------------------------------------------------------------- VR gradient


def test_vr_at_anchor_returns_full_grad_exactly(rng):
    ds = _hand_dataset()
    xt = rng.standard_normal(3)
    anchor = Problem(ds, LossKind.LOGISTIC, Regularizer()).make_anchor(xt)
    out = vr_gradient(LossKind.LOGISTIC, ds, [1, 3], anchor.x_tilde, anchor)
    assert np.array_equal(out, anchor.full_grad)


def test_vr_full_batch_equals_full_grad_exactly(rng):
    ds = _hand_dataset()
    anchor = Problem(ds, LossKind.LOGISTIC, Regularizer()).make_anchor(rng.standard_normal(3))
    x = rng.standard_normal(3)
    out = vr_gradient(LossKind.LOGISTIC, ds, range(ds.n), x, anchor)
    assert np.array_equal(out, full_grad(LossKind.LOGISTIC, ds, x))


def test_vr_unbiased_over_all_batches(rng):
    ds = random_dataset(rng, 6, 5)
    prob = Problem(ds, LossKind.LOGISTIC, Regularizer())
    anchor = prob.make_anchor(rng.standard_normal(5))
    x = rng.standard_normal(5)
    batches = list(itertools.combinations(range(6), 2))
    assert len(batches) == 15
    mean = sum(vr_gradient(LossKind.LOGISTIC, ds, b, x, anchor) for b in batches) / len(batches)
    assert np.max(np.abs(mean - full_grad(LossKind.LOGISTIC, ds, x))) < 1e-12


# ---------------------------------------------------------------- prox


def test_prox_hand_case():
    # step * lambda1 = 1, lambda2 = 0
    out = prox_elastic(np.array([2.0, -0.5]), 1.0, Regularizer(1.0, 0.0))
    assert out.tolist() == [1.0, 0.0]


def test_prox_identity_and_zero_fixed_point():
    y = np.array([0.3, -2.0, 0.0])
    assert np.array_equal(prox_elastic(y, 0.7, Regularizer(0.0, 0.0)), y)
    assert np.array_equal(prox_elastic(np.zeros(3), 1.0, Regularizer(0.5, 0.5)), np.zeros(3))


def test_prox_rejects_nonpositive_step():
    with pytest.raises(ContractViolation):
        prox_elastic(np.zeros(2), 0.0, Regularizer(0.1, 0.0))


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_prox_rejects_non_finite_step(step):
    # nan used to give NaN silently and inf to give zeros
    for reg in (Regularizer(0.1, 0.2), Regularizer(0.0, 0.0)):
        with pytest.raises(ContractViolation, match="finite and > 0"):
            prox_elastic(np.ones(3), step, reg)


def _sign_form_prox(y, step, reg):
    """The elastic-net prox in its sign form: the bitwise oracle for
    ``prox_elastic``'s copysign form."""
    y = np.asarray(y)
    if reg.lambda1 == 0.0 and reg.lambda2 == 0.0:
        return y.copy()
    out = np.sign(y) * np.maximum(np.abs(y) - step * reg.lambda1, 0.0)
    if reg.lambda2 != 0.0:
        out = out / (1.0 + step * reg.lambda2)
    return out


@pytest.mark.parametrize("l1, l2", [(0.0, 0.0), (0.0, 0.5), (0.7, 0.0), (0.7, 0.5), (2.5, 1e-3)])
def test_prox_bytes_equal_sign_form(rng, l1, l2):
    # +-0.0, +-inf, NaN and |y| = step * lambda1 exactly, among values of
    # every scale; written to a new array, to an out buffer and in place
    reg = Regularizer(l1, l2)
    y = rng.standard_normal(20_000) * 10.0 ** rng.integers(-300, 300, size=20_000)
    for step in (1.0, 0.3, 1e-12):
        t = step * l1
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, t, -t, 5e-324, -5e-324]
        y[:len(special)] = special
        want = _sign_form_prox(y, step, reg)
        assert prox_elastic(y, step, reg).tobytes() == want.tobytes()
        out = np.empty_like(y)
        assert prox_elastic(y, step, reg, out=out) is out
        assert out.tobytes() == want.tobytes()
        inplace = y.copy()
        prox_elastic(inplace, step, reg, out=inplace)
        assert inplace.tobytes() == want.tobytes()
    # the sign of zero: -0.0 comes out +0.0, a thresholded negative -0.0
    if l1 > 0:
        got = prox_elastic(np.array([-0.0, -0.1, 0.1]), 1.0, reg)
        assert np.signbit(got).tolist() == [False, True, False]
    # integer input keeps its float64 output
    ints = np.array([3, -1, 0, 2])
    got = prox_elastic(ints, 1.0, reg)
    assert got.dtype == _sign_form_prox(ints, 1.0, reg).dtype
    assert got.tobytes() == _sign_form_prox(ints, 1.0, reg).tobytes()


def test_prox_matches_ternary_oracle(rng):
    for _ in range(200):
        y = float(rng.uniform(-5, 5))
        step = float(rng.uniform(0.05, 3.0))
        l1 = float(rng.uniform(0, 2))
        l2 = float(rng.uniform(0, 2))
        got = prox_elastic(np.array([y]), step, Regularizer(l1, l2))[0]
        assert got == pytest.approx(prox_ternary_oracle(y, step, l1, l2), abs=1e-9)


def test_prox_nonexpansive(rng):
    reg = Regularizer(0.4, 0.2)
    for _ in range(1000):
        y = rng.standard_normal(4)
        z = rng.standard_normal(4)
        py = prox_elastic(y, 0.5, reg)
        pz = prox_elastic(z, 0.5, reg)
        assert np.linalg.norm(py - pz) <= np.linalg.norm(y - z) + 1e-12


# ---------------------------------------------------------------- objective


def test_objective_at_zero_logistic():
    ds = _hand_dataset()
    got = objective_value(LossKind.LOGISTIC, ds, Regularizer(0.5, 0.5), np.zeros(3))
    assert got == pytest.approx(LN2, abs=1e-15)


def test_objective_hand_two_examples():
    # least squares on two 1-D examples, evaluated independently via decimal
    exs = [_ex([(0, 2.0)], 1, 1.0), _ex([(0, -1.0)], 1, 0.5)]
    ds = build_dataset(exs, 1)
    x = np.array([0.75])
    got = objective_value(LossKind.LEAST_SQUARES, ds, Regularizer(0.25, 0.5), x)
    getcontext().prec = 50
    xd = Decimal("0.75")
    loss = (Decimal(2) * xd - 1) ** 2 / 2 + (Decimal(-1) * xd - Decimal("0.5")) ** 2 / 2
    expected = loss / 2 + Decimal("0.25") * xd + Decimal("0.5") / 2 * xd * xd
    assert got == pytest.approx(float(expected), abs=1e-15)


def test_strong_convexity_witness(rng):
    prob = make_problem(rng, 30, 6, lambda1=0.2, lambda2=0.3)
    mu = prob.reg.lambda2
    for _ in range(50):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        xi = prob.full_grad(x) + prob.reg.lambda1 * np.sign(x) + prob.reg.lambda2 * x
        lhs = prob.objective(y)
        rhs = prob.objective(x) + xi @ (y - x) + 0.5 * mu * np.dot(y - x, y - x)
        assert lhs >= rhs - 1e-10


def test_logistic_labels_validated():
    ex = _ex([(0, 1.0)], 1, 2.0)
    with pytest.raises(ContractViolation):
        Problem(build_dataset([ex], 1), LossKind.LOGISTIC, Regularizer())


# ---------------------------------------------------------------- CSR kernels
#
# The per-row loop the CSR kernels replaced, kept as the reference: np.dot per
# row, a scalar sigmoid, and a row-by-row scatter-add.


def _oracle_coef(kind, a, b, x):
    t = float(np.dot(a.values, x[a.indices]))
    if kind is LossKind.LOGISTIC:
        s = -b * t
        sig = 1.0 / (1.0 + math.exp(-s)) if s >= 0.0 else math.exp(s) / (1.0 + math.exp(s))
        return -b * sig
    return t - b


def _oracle_grad(kind, ds, rows, x):
    out = np.zeros(ds.d)
    for i in rows:
        ex = ds.examples[i]
        out[ex.a.indices] += _oracle_coef(kind, ex.a, ex.b, x) * ex.a.values
    return out / len(rows)


def _oracle_objective(kind, ds, reg, x):
    acc = 0.0
    for ex in ds.examples:
        t = float(np.dot(ex.a.values, x[ex.a.indices]))
        if kind is LossKind.LOGISTIC:
            m = ex.b * t
            acc += math.log1p(math.exp(-m)) if m >= 0.0 else -m + math.log1p(math.exp(m))
        else:
            acc += 0.5 * (t - ex.b) ** 2
    return acc / ds.n + reg.value(x)


def _with_empty_rows(rng, n, d):
    """Random dataset whose first, a middle and the last rows are empty."""
    empty = SparseVec(np.empty(0, dtype=np.int64), np.empty(0), d)
    exs = [
        SparseExample(random_sparse_vec(rng, d, 0.5) if i not in (0, n // 2, n - 1) else empty,
                      float(rng.choice([-1.0, 1.0])))
        for i in range(n)
    ]
    return build_dataset(exs, d)


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.LEAST_SQUARES])
def test_kernels_match_per_row_oracle(rng, kind):
    n, d = 40, 9
    ds = _with_empty_rows(rng, n, d)
    reg = Regularizer(0.01, 0.1)
    anchor = Problem(ds, kind, reg).make_anchor(rng.standard_normal(d))
    batches = [
        [5],                                  # B = 1
        [0],                                  # one empty row
        [0, n // 2, n - 1, 0],                # empty rows only
        [3, 3, 0, 11, 3, n - 1, 8],           # B = 7, duplicates and empty rows
        list(range(n)),                       # B = n
        rng.integers(0, n, size=7).tolist(),
    ]
    for _ in range(5):
        x = rng.standard_normal(d)
        for batch in batches:
            _close(minibatch_grad(kind, ds, batch, x), _oracle_grad(kind, ds, batch, x))
            want_vr = (_oracle_grad(kind, ds, batch, x)
                       - _oracle_grad(kind, ds, batch, anchor.x_tilde) + anchor.full_grad)
            np.testing.assert_allclose(vr_gradient(kind, ds, batch, x, anchor), want_vr,
                                       rtol=1e-12, atol=1e-15)
        _close(full_grad(kind, ds, x), _oracle_grad(kind, ds, range(n), x))
        _close(objective_value(kind, ds, reg, x), _oracle_objective(kind, ds, reg, x))


def test_kernels_on_a_dataset_of_empty_rows_only():
    empty = SparseExample(SparseVec(np.empty(0, dtype=np.int64), np.empty(0), 3), 1.0)
    ds = build_dataset([empty] * 3, 3)
    x = np.array([1.0, -2.0, 3.0])
    for kind in (LossKind.LOGISTIC, LossKind.LEAST_SQUARES):
        assert minibatch_grad(kind, ds, [0, 2, 2], x).tolist() == [0.0] * 3
        assert full_grad(kind, ds, x).tolist() == [0.0] * 3
    assert objective_value(LossKind.LOGISTIC, ds, Regularizer(), x) == pytest.approx(LN2)


@pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.LEAST_SQUARES])
def test_kernels_bitwise_identities(rng, kind):
    d = 400
    wide = SparseExample(random_sparse_vec(rng, d, 0.6), 1.0)  # 240 nnz
    assert wide.a.nnz >= 200
    rows = [wide] + [SparseExample(random_sparse_vec(rng, d, 0.3), float(rng.choice([-1.0, 1.0])))
                     for _ in range(255)]
    ds = build_dataset(rows, d)
    one = build_dataset([wide], d)
    for _ in range(5):
        x = rng.standard_normal(d)
        # the one-row path and the batch path compute a row's gradient with
        # the same arithmetic in the same order
        for i in range(ds.n):
            g1 = minibatch_grad(kind, ds, [i], x)
            assert g1.tobytes() == minibatch_grad(kind, ds, [i, i], x).tobytes()
        # so does a full pass over a dataset of that row alone
        g1 = minibatch_grad(kind, ds, [0], x)
        assert g1.tobytes() == full_grad(kind, one, x).tobytes()
        # a batch of every row is the full gradient
        assert minibatch_grad(kind, ds, range(ds.n), x).tobytes() == full_grad(kind, ds, x).tobytes()
    big = _with_empty_rows(rng, 300, 8)
    x = rng.standard_normal(8)
    assert minibatch_grad(kind, big, range(big.n), x).tobytes() == full_grad(kind, big, x).tobytes()


@pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.LEAST_SQUARES])
def test_vr_batch_kernel_matches_two_pass_oracle(rng, kind):
    n, d = 40, 9
    ds = _with_empty_rows(rng, n, d)
    empty = [0, n // 2, n - 1]
    prob = Problem(ds, kind, Regularizer(0.01, 0.1))
    substituted = 0
    for _ in range(6):
        xt = rng.standard_normal(d)
        anchor = prob.make_anchor(xt)
        assert anchor.full_grad.tobytes() == full_grad(kind, ds, xt).tobytes()
        planted = anchor.full_grad.copy()
        planted[rng.random(d) < 0.3] = -0.0
        planted[rng.random(d) < 0.2] = 0.0
        batches = [
            rng.integers(0, n, size=2),           # B = 2
            [3, 3],                               # B = 2, one row twice
            rng.integers(0, n, size=7),           # B = 7
            [3, 3, 0, 11, 3, n - 1, 8],           # B = 7, duplicates and empty rows
            empty + [empty[1]],                   # empty rows only
            list(range(n)),                       # B = n
            rng.integers(0, n, size=n),           # B = n, with duplicates
            [5],                                  # one row, whole vector
        ]
        for a in (anchor, replace(anchor, full_grad=planted)):
            for x in (rng.standard_normal(d), xt):  # a read, and a read at x_tilde
                for batch in batches:
                    want = two_pass_vr(kind, ds, batch, x, a)
                    got = vr_gradient(kind, ds, batch, x, a)
                    assert got.tobytes() == want.tobytes(), (batch, x is xt)
                    substituted += int(np.sum(minibatch_grad(kind, ds, batch, xt) == a.full_grad))
    assert substituted > 0
    # a least-squares row read where a_i^T x = b_i exactly: c = 0, and
    # c * a_i is -0.0 where a_i < 0
    ls = Dataset([0, 2, 2], [1, 3], [-2.0, 4.0], [1.0, -1.0], 5)
    x = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
    prob = Problem(ls, LossKind.LEAST_SQUARES, Regularizer())
    for xt in (x, np.ones(5)):
        a = prob.make_anchor(xt)
        for planted in (a.full_grad, np.array([-0.0, -0.0, 0.0, -0.0, 1.0])):
            a = replace(a, full_grad=planted)
            for batch in ([0, 0], [0, 1], [1, 1]):
                want = two_pass_vr(LossKind.LEAST_SQUARES, ls, batch, x, a)
                got = vr_gradient(LossKind.LEAST_SQUARES, ls, batch, x, a)
                assert got.tobytes() == want.tobytes()


def test_anchor_keeps_every_row_coefficient(rng):
    ds = _with_empty_rows(rng, 30, 7)
    for kind in (LossKind.LOGISTIC, LossKind.LEAST_SQUARES):
        xt = rng.standard_normal(7)
        anchor = Problem(ds, kind, Regularizer()).make_anchor(xt)
        assert anchor.coefs.shape == (ds.n,)
        for i, ex in enumerate(ds.examples):
            # grad f_i(x_tilde) = coefs[i] a_i, as a full pass over row i alone computes it
            want = full_grad(kind, build_dataset([ex], ds.d), xt)
            assert (anchor.coefs[i] * to_dense(ex.a) + 0.0).tobytes() == (want + 0.0).tobytes()


def test_logistic_kernels_raise_no_warning_at_large_margins():
    import warnings

    ds = build_dataset([_ex([(0, 1.0)], 1, 1.0), _ex([(0, 1.0)], 1, -1.0)], 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e3, -1e3):
            x = np.array([t])
            g = minibatch_grad(LossKind.LOGISTIC, ds, [0, 1], x)
            assert np.all(np.isfinite(g))
            for i in range(ds.n):
                assert np.isfinite(minibatch_grad(LossKind.LOGISTIC, ds, [i], x)).all()
                one = build_dataset([ds.examples[i]], 1)
                assert math.isfinite(objective_value(LossKind.LOGISTIC, one, Regularizer(), x))
            assert np.isfinite(full_grad(LossKind.LOGISTIC, ds, x)).all()
            assert objective_value(LossKind.LOGISTIC, ds, Regularizer(), x) == pytest.approx(500.0)


# ---------------------------------------------------------------- CSR contract


def _csr(indptr, indices, data, labels=None, d=4):
    labels = [1.0] * (len(indptr) - 1) if labels is None else labels
    return Dataset(np.array(indptr), np.array(indices), np.array(data, dtype=float), labels, d)


def test_csr_constructor_accepts_canonical_rows():
    # indices may fall across a row boundary; empty rows anywhere
    ds = _csr([0, 0, 2, 3, 3], [1, 3, 0], [1.0, -2.0, 0.5])
    assert ds.n == 4 and ds.row_nnz.tolist() == [0, 2, 1, 0]
    assert [ex.a.indices.tolist() for ex in ds.examples] == [[], [1, 3], [0], []]
    assert ds.examples is ds.examples  # built once
    with pytest.raises(ValueError):
        ds.data[0] = 2.0  # read-only


@pytest.mark.parametrize(
    "indptr, indices, data",
    [
        ([0, 2], [2, 1], [1.0, 1.0]),           # unsorted within a row
        ([0, 1, 3], [0, 2, 2], [1.0, 1.0, 1.0]),  # duplicate within a row
        ([0, 2], [0, 4], [1.0, 1.0]),           # index out of range
        ([0, 1], [-1], [1.0]),                  # negative index
        ([0, 2], [0, 1], [1.0, 0.0]),           # stored zero
        ([0, 2, 1, 3], [0, 1, 2], [1.0, 1.0, 1.0]),  # indptr not monotone
        ([0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0]),  # indptr short of the data
        ([1, 2], [0, 1], [1.0, 1.0]),           # indptr not starting at 0
        ([0, 2], [0, 1], [1.0]),                # indices and data lengths differ
    ],
)
def test_csr_constructor_rejects_non_canonical_input(indptr, indices, data):
    with pytest.raises(ContractViolation):
        _csr(indptr, indices, data)


def test_csr_constructor_rejects_bad_shapes():
    with pytest.raises(ContractViolation):
        _csr([0], [], [], labels=[])  # no rows
    with pytest.raises(ContractViolation):
        _csr([0, 1], [0], [1.0], labels=[1.0, -1.0])  # labels vs indptr
    for d in (2.7, -3, "4", True):  # an integer >= 0, never truncated
        with pytest.raises(ContractViolation, match="d must be an integer"):
            _csr([0, 1], [0], [1.0], d=d)
    assert _csr([0, 0], [], [], d=0).d == 0  # a dataset of empty rows has d = 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["data", "labels"])
def test_csr_constructor_rejects_non_finite_values(bad, field):
    arrays = {"data": [1.0, 2.0], "labels": [1.0]}
    arrays[field][0] = bad
    with pytest.raises(ContractViolation, match="finite"):
        Dataset([0, 2], [0, 1], arrays["data"], arrays["labels"], 2)


# ----------------------------------------------- the row-order multiset mean


def _draw_order_mean(kind, ds, batch, x):
    """The mini-batch mean as it was summed before the multiset rule, kept
    as an oracle: the rows gathered in draw order, a repeated row adding
    its term once per draw. Returns the mean and (1/B) sum |terms| per
    coordinate."""
    batch = np.asarray(batch, dtype=np.int64)
    lens = ds.row_nnz[batch]
    pos = np.concatenate([np.arange(ds.indptr[i], ds.indptr[i + 1]) for i in batch])
    idx, vals = ds.indices[pos], ds.data[pos]
    c = problem_mod._coefs(kind, problem_mod._dots(idx, vals, x, problem_mod._segments(lens)),
                           ds.labels[batch])
    out = problem_mod._scatter(ds.d, idx, vals, lens, c)
    scale = problem_mod._scatter(ds.d, idx, np.abs(vals), lens, np.abs(c))
    return out / batch.size, scale / batch.size


@pytest.mark.parametrize("kind", list(LossKind))
def test_multiset_mean_matches_draw_order_sum(rng, kind):
    # a sorted batch without repeats is summed as before, byte for byte;
    # otherwise the row-order multiset mean moves each coordinate by at most
    # 16 ulps of (1/B) sum |terms| (about 4 at worst measured at B <= 2n)
    n, d = 40, 9
    ds = _with_empty_rows(rng, n, d)
    eps = np.finfo(np.float64).eps
    moved = 0
    for _ in range(150):
        x = 2.0 * rng.standard_normal(d)
        batch = rng.integers(0, n, size=int(rng.integers(2, 2 * n + 1)))
        distinct = np.unique(batch)
        for b in (distinct, np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                               replace=False))):
            want, _ = _draw_order_mean(kind, ds, b, x)
            assert minibatch_grad(kind, ds, b, x).tobytes() == want.tobytes()
        got = minibatch_grad(kind, ds, batch, x)
        want, scale = _draw_order_mean(kind, ds, batch, x)
        assert np.all(np.abs(got - want) <= 16 * eps * scale)
        moved += int(got.tobytes() != want.tobytes())
    assert moved > 0


def _forms(wide):
    """Force a stage plan's batches of several rows into the all-rows
    (``wide``) or the gathered form."""
    return mock.patch.object(problem_mod, "_is_wide", lambda dataset, B: wide)


def _planned_read(kind, ds, planned, x):
    """The read-side term (1/B) sum_i (m_i c_i) a_i of a stage plan's batch."""
    rows, weights, size = planned[:3]
    _, out = problem_mod._grad_sum(kind, ds.d, rows, x, weights)
    out /= size
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), d=st.integers(1, 7),
       B=st.integers(2, 30), with_replacement=st.booleans(),
       kind=st.sampled_from(list(LossKind)), lambda1=st.sampled_from([0.0, 0.05]),
       bad=st.sampled_from([None, math.inf, -math.inf, math.nan]))
def test_all_rows_form_gives_the_gathered_bytes(seed, n, d, B, with_replacement, kind,
                                                lambda1, bad):
    # the two forms of a stage plan's batch of several rows, one gather of
    # its distinct rows and one weighted pass over every row, give the bytes
    # of minibatch_grad and of vr_gradient without a plan, at the read and
    # in the whole VR gradient, and the same replay; rows with no entries,
    # repeats, both sampling laws, and a read that is infinite or NaN on
    # coordinates only rows outside the batch hold
    assume(with_replacement or B <= n)
    rng = np.random.default_rng(seed)
    indptr, indices = [0], []
    for _ in range(n):
        k = int(rng.integers(0, min(d, 3) + 1))
        indices += np.sort(rng.choice(d, size=k, replace=False)).tolist()
        indptr.append(len(indices))
    data = rng.standard_normal(len(indices)) + 2.0
    ds = Dataset(indptr, indices, data, rng.choice([-1.0, 1.0], size=n), d)
    reg = Regularizer(lambda1, 0.1)
    prob = Problem(ds, kind, reg)
    # lambda1 > 0: exact zeros of either sign in the anchor
    anchor = prob.make_anchor(prox_elastic(rng.standard_normal(d), 1.0, reg))
    batch = draw_batch(rng, n, B, with_replacement)
    x = rng.standard_normal(d)
    held = np.zeros(d, dtype=bool)
    for i in set(batch.tolist()):
        held[ds.indices[ds.indptr[i]:ds.indptr[i + 1]]] = True
    if bad is not None:
        x[~held] = bad
    want = (minibatch_grad(kind, ds, batch, x), vr_gradient(kind, ds, batch, x, anchor))
    assert np.isfinite(want[0]).all() and np.isfinite(want[1]).all()
    for wide in (False, True):
        # the all-rows pass meets the bad read on rows outside the batch,
        # where inf - inf may warn; their weight of 0 masks the result
        with _forms(wide), np.errstate(invalid="ignore"):
            (_, planned), = stage_batches(ds, anchor, batch.reshape(1, -1))
            assert (planned[0] is ds._all_rows) == wide
            got = (_planned_read(kind, ds, planned, x),
                   vr_gradient(kind, ds, batch, x, anchor, planned))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
    if bad is None and n > 1:
        cfg = SolverConfig(eta=0.2, B=min(B, n), K=3, S=2, seed=seed % 1000,
                           with_replacement=with_replacement)
        runs = []
        for wide in (False, True):
            with _forms(wide):
                runs.append(prox_svrg_run(prob, cfg, np.zeros(d)))
        assert [o.hex() for o in runs[0].objectives] == [o.hex() for o in runs[1].objectives]
        assert runs[0].x_final.tobytes() == runs[1].x_final.tobytes()


@pytest.mark.parametrize("kind", list(LossKind))
def test_all_rows_form_masks_rows_outside_the_batch(kind):
    # rows 1 and 2 hold coordinate 2 alone, where the read is infinite or
    # NaN, so their coefficients are not finite; outside the batch they add
    # nothing, and the batch's gradient is that of its own rows
    ds = Dataset([0, 2, 3, 4, 4], [0, 1, 2, 2], [1.0, -2.0, 3.0, 0.5], [1.0, -1.0, 1.0, 1.0], 3)
    anchor = Problem(ds, kind, Regularizer()).make_anchor(np.array([0.1, -0.2, 0.3]))
    for bad in (math.inf, -math.inf, math.nan):
        x = np.array([0.5, 0.25, bad])
        with _forms(True), np.errstate(invalid="ignore"):
            (_, planned), = stage_batches(ds, anchor, np.array([[0, 3, 0]]))
            got = (_planned_read(kind, ds, planned, x),
                   vr_gradient(kind, ds, [0, 3, 0], x, anchor, planned))
        assert got[0].tobytes() == minibatch_grad(kind, ds, [0, 3, 0], x).tobytes()
        assert got[1].tobytes() == vr_gradient(kind, ds, [0, 3, 0], x, anchor).tobytes()
        assert np.isfinite(got[0]).all() and np.isfinite(got[1]).all()
        want, _ = _draw_order_mean(kind, ds, [0, 0], x)
        np.testing.assert_allclose(got[0], want * 2 / 3, rtol=1e-15)
