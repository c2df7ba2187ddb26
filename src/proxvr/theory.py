"""Executable convergence theory: problem constants, step-size admissibility,
per-stage contraction factors, and speedup classifications for the
variance-reduced solvers and their delayed (asynchronous) counterparts.

All formulas are evaluated exactly as stated; delay-dependent bounds are
treated as vacuous (+inf) at tau = 0 rather than as division errors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, RateDomainError
from .problem import Dataset, LossKind


@dataclass(frozen=True)
class ProblemConstants:
    """Everything the rate formulas consume.

    mu     -- strong-convexity modulus of the composite objective
    L      -- Lipschitz constant of the per-example gradients
    T      -- Lipschitz constant of the per-coordinate partial gradients
    Delta  -- data sparsity: max fraction of examples any one feature touches
    tau    -- bound on the expected update delay
    B, K, m, eta -- solver configuration entering the formulas
    """

    mu: float
    L: float
    T: float
    Delta: float
    tau: float
    B: int = 1
    K: int = 1
    m: int = 1
    eta: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mu, self.L, self.T))):
            raise ContractViolation(f"need finite mu, L and T, got {self.mu}, {self.L}, {self.T}")
        if not (0 < self.mu <= self.L):
            raise ContractViolation("need 0 < mu <= L")
        if self.T <= 0:
            raise ContractViolation("need T > 0")
        if not (0 < self.Delta <= 1):
            raise ContractViolation("need 0 < Delta <= 1")
        if self.tau < 0:
            raise ContractViolation("need tau >= 0")
        if self.B < 1 or self.K < 1 or self.m < 1:
            raise ContractViolation("need B, K, m >= 1")
        if self.eta <= 0:
            raise ContractViolation("need eta > 0")


@dataclass(frozen=True)
class Speedup:
    """Classification of the parallel-efficiency regime."""

    kind: str  # "linear" | "partial" | "none"
    factor: float | None = None


def data_sparsity_delta(dataset: Dataset) -> float:
    """Max over features of (examples containing the feature) / n."""
    if dataset.n < 1:
        raise ContractViolation("empty dataset")
    top = int(np.bincount(dataset.indices).max()) if dataset.indices.size else 0
    if top == 0:
        warnings.warn("dataset has no stored features; Delta = 0 is degenerate")
        return 0.0
    return top / dataset.n


def svrg_stepsize_admissible(c: ProblemConstants) -> bool:
    """eta < min{ 2 / (5 L B Delta tau^2), B / (16 L) }, strictly."""
    if c.tau == 0:
        bound_delay = math.inf
    else:
        bound_delay = 2.0 / (5.0 * c.L * c.B * c.Delta * c.tau**2)
    return c.eta < min(bound_delay, c.B / (16.0 * c.L))


def svrg_rate(c: ProblemConstants) -> float:
    """Per-stage contraction factor

        rho = B / (eta mu K (B - 8 eta L)) + 8 eta L / (B - 8 eta L).

    Raises RateDomainError when B - 8 eta L <= 0. Callers check rho < 1.
    """
    denom = c.B - 8.0 * c.eta * c.L
    if denom <= 0:
        raise RateDomainError("rate undefined: B - 8*eta*L <= 0")
    return c.B / (c.eta * c.mu * c.K * denom) + 8.0 * c.eta * c.L / denom


def svrg_speedup_condition(c: ProblemConstants) -> Speedup:
    """Linear speedup iff tau <= sqrt(8 / (B^2 Delta)); otherwise a partial
    speedup of 1 / (B^2 Delta tau) while that factor exceeds 1."""
    if c.tau <= math.sqrt(8.0 / (c.B**2 * c.Delta)):
        return Speedup("linear")
    load = c.B**2 * c.Delta * c.tau
    if load < 1.0:
        return Speedup("partial", 1.0 / load)
    return Speedup("none")


def svrcd_stepsize_admissible(c: ProblemConstants) -> bool:
    """All three step-size bounds, strictly, plus the side condition B >= L/T:

        eta < min{ (1/T) (m^1.5 - T tau) / (m^1.5 + 3 m tau + tau^2),
                   1 / (8 T),
                   mu sqrt(m) / (2 T tau) }.
    """
    if c.B < c.L / c.T:
        return False
    m32 = c.m**1.5
    bound1 = (m32 - c.T * c.tau) / (c.T * (m32 + 3.0 * c.m * c.tau + c.tau**2))
    bound2 = 1.0 / (8.0 * c.T)
    bound3 = math.inf if c.tau == 0 else c.mu * math.sqrt(c.m) / (2.0 * c.T * c.tau)
    return c.eta < min(bound1, bound2, bound3)


def svrcd_rate(c: ProblemConstants) -> float:
    """Per-stage contraction factor

        rho = m / (eta mu K D) + 4 eta T (K+1) / (D K),
        D   = 1 - T eta tau / (mu sqrt(m)) - 4 eta T.

    Raises RateDomainError when D <= 0.
    """
    D = 1.0 - (c.T * c.eta * c.tau) / (c.mu * math.sqrt(c.m)) - 4.0 * c.eta * c.T
    if D <= 0:
        raise RateDomainError("rate undefined: non-positive denominator term")
    return c.m / (c.eta * c.mu * c.K * D) + 4.0 * c.eta * c.T * (c.K + 1) / (D * c.K)


def svrcd_speedup_condition(c: ProblemConstants, n: int | None = None) -> Speedup:
    """Linear speedup iff tau <= min{ sqrt(m), 4 mu sqrt(m), m^1.5 / (2T) }.

    Past that, with the sample size ``n`` supplied (indicative regime where
    the condition number scales like sqrt(n)), a partial speedup of
    sqrt(m) / (2 tau sqrt(n)) remains while tau <= sqrt(m).
    """
    rm = math.sqrt(c.m)
    if c.tau <= min(rm, 4.0 * c.mu * rm, c.m**1.5 / (2.0 * c.T)):
        return Speedup("linear")
    if n is not None and c.tau <= rm:
        return Speedup("partial", rm / (2.0 * c.tau * math.sqrt(n)))
    return Speedup("none")


def estimate_lipschitz(dataset: Dataset, kind: LossKind) -> tuple[float, float]:
    """(L, T) from the data: L = max row-norm^2, scaled by 1/4 for logistic;
    T defaults to L (a conservative bound on per-coordinate curvature)."""
    if dataset.n < 1:
        raise ContractViolation("empty dataset")
    top = float(dataset.row_norms_sq().max())
    L = 0.25 * top if kind is LossKind.LOGISTIC else top
    return L, L


def smoothness_bound(dataset: Dataset, kind: LossKind) -> float:
    """A certified upper bound L_F on the Lipschitz constant of the gradient
    of the smooth part F(x) = (1/n) sum_i f(a_i^T x, b_i), in O(nnz):

        L_F = c min( max_i ||a_i||^2,  max_j sum_i |a_ij| r_i / n ),

    with r_i = ||a_i||_1 and c = 1/4 for logistic, 1 for least squares, so
    c ||A||^2 / n <= L_F. Row term: A^T A / n is the mean of the a_i a_i^T,
    each of norm ||a_i||^2 (it is ``estimate_lipschitz``'s L, so L_F never
    exceeds that). Column term: ||A x|| <= || |A| |x| ||, so ||A||^2 <=
    rho(|A|^T |A|), at most the largest row sum of the nonnegative
    |A|^T |A|, and row j of it sums to sum_i |a_ij| r_i. The paper's rates
    need the per-example L; this is the constant a full-gradient method
    needs. 0 when the dataset stores no entries."""
    if not dataset.data.size:
        return 0.0
    absval = np.abs(dataset.data)
    # r_i per row; np.add.reduceat sums a start-to-start segment, so the
    # empty rows (r_i = 0) are left out of it
    full = dataset.row_nnz > 0
    row_l1 = np.zeros(dataset.n)
    row_l1[full] = np.add.reduceat(absval, dataset.indptr[:-1][full])
    weights = np.repeat(row_l1, dataset.row_nnz)
    weights *= absval
    cols = float(np.bincount(dataset.indices, weights=weights).max()) / dataset.n
    top = min(float(dataset.row_norms_sq().max()), cols)
    return 0.25 * top if kind is LossKind.LOGISTIC else top
