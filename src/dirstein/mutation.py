"""Mutation kernels and the scalars the approximation bounds consume.

A mutation matrix P has entries p_ij: the probability that the child of a
type-i parent is type j.  Downstream bounds never look at P directly, only at
a handful of derived scalars:

    tau     = sum_i sum_{j != i} |p_ij - a_j/(2N)|   deviation from the
                                                     Dirichlet-matched rates
    mu      = sum_i sum_{j != i} p_ij                total mutation mass
    sigma_j = p_Kj + sum_{k != j} p_jk               per-type decay rates
    tau_j   = p_Kj + sum_{k != j} |p_kj - p_Kj|      (both for j = 1..K-1)

and, when mutation is parent independent (p_ij = pi_j for every i != j), the
rates pi with sigma = sum_i pi_i.  With q_j(x) = sum_k p_kj x_k / N the
expected drift of the count chain linearizes exactly:

    q_j - W_j = (a_j - s W_j)/(2N) + R_j(W),

where R collects every mutation/parameter mismatch; R = 0 when
p_ij = a_j/(2N) off the diagonal.  Rational inputs are kept exact end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .simplex import DirichletParams, SimplexError, SimplexPoint, _as_number

ROW_SUM_TOL = 1e-12


class MutationError(ValueError):
    pass


def _exact_div(v, d):
    if isinstance(v, (int, Fraction)) and isinstance(d, (int, Fraction)):
        return Fraction(v) / Fraction(d)
    return v / d


@dataclass(frozen=True)
class MutationMatrix:
    """Row-stochastic K x K matrix of parent-to-child type probabilities.

    Rows are renormalized exactly at construction (after a strict 1e-12
    row-sum check), so equality tests on entries are meaningful afterwards.
    """

    p: tuple

    def __init__(self, p):
        rows = list(p)
        K = len(rows)
        if K < 2:
            raise MutationError("need at least 2 types")
        norm = []
        for i, row in enumerate(rows):
            row = tuple(_as_number(v) for v in row)
            if len(row) != K:
                raise MutationError(f"row {i} has {len(row)} entries, expected {K}")
            if any(v < 0 for v in row):
                raise MutationError(f"negative entry in row {i}")
            s = sum(row)
            if abs(float(s) - 1.0) > ROW_SUM_TOL:
                raise MutationError(f"row {i} sums to {float(s)}, not 1")
            norm.append(row if s == 1 else tuple(_exact_div(v, s) for v in row))
        object.__setattr__(self, "p", tuple(norm))

    @classmethod
    def pim(cls, pi: Sequence) -> "MutationMatrix":
        """Parent-independent matrix: p_ij = pi_j for i != j, diagonal filled
        to make rows stochastic."""
        pi = tuple(_as_number(v) for v in pi)
        K = len(pi)
        if K < 2:
            raise MutationError("need at least 2 types")
        if any(v < 0 for v in pi):
            raise MutationError("negative mutation rate")
        rows = []
        for i in range(K):
            off = sum(pi[j] for j in range(K) if j != i)
            if off > 1:
                raise MutationError(f"rates too large: row {i} diagonal would be {1 - off}")
            rows.append(tuple(pi[j] if j != i else 1 - off for j in range(K)))
        return cls(rows)

    @property
    def K(self) -> int:
        return len(self.p)

    @cached_property
    def is_pim(self) -> bool:
        """True iff every column is constant off the diagonal (exactly)."""
        K = self.K
        for j in range(K):
            col = [self.p[i][j] for i in range(K) if i != j]
            if any(v != col[0] for v in col[1:]):
                return False
        return True

    @cached_property
    def pim_rates(self):
        """The per-type rates pi when parent independent, else None."""
        if not self.is_pim:
            return None
        K = self.K
        return tuple(self.p[1 if j == 0 else 0][j] for j in range(K))

    def array(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.p])


@dataclass(frozen=True)
class MutationSummary:
    """The matrix read through the scalars the bounds use.

    sigma is the total parent-independent rate sum(pi) and is None for
    matrices that are not parent independent."""

    tau: object
    mu: object
    sigma_j: tuple
    tau_j: tuple
    sigma: object = None


def summarize(p: MutationMatrix, a: DirichletParams, N: int) -> MutationSummary:
    """Compute tau, mu and the per-type sigma_j, tau_j scalars.

    tau measures the total deviation of off-diagonal rates from a_j/(2N);
    it is zero exactly when mutation matches the target Dirichlet(a).
    """
    K = p.K
    if a.dim != K:
        raise MutationError(f"parameter dimension {a.dim} != matrix dimension {K}")
    if N < 2:
        raise MutationError("N must be >= 2")
    target = [_exact_div(a.a[j], 2 * N) for j in range(K)]
    tau = sum(
        abs(p.p[i][j] - target[j]) for i in range(K) for j in range(K) if j != i
    )
    mu = sum(p.p[i][j] for i in range(K) for j in range(K) if j != i)
    sigma_j = tuple(
        p.p[K - 1][j] + sum(p.p[j][k] for k in range(K) if k != j)
        for j in range(K - 1)
    )
    tau_j = tuple(
        p.p[K - 1][j] + sum(abs(p.p[k][j] - p.p[K - 1][j]) for k in range(K) if k != j)
        for j in range(K - 1)
    )
    sigma = sum(p.pim_rates) if p.is_pim else None
    return MutationSummary(tau=tau, mu=mu, sigma_j=sigma_j, tau_j=tau_j, sigma=sigma)


def fit_dirichlet_params(p: MutationMatrix, N: int) -> DirichletParams:
    """Pick the Dirichlet parameters that mutation approximates best.

    a_j = 2N * median of the off-diagonal entries of column j; the median
    minimizes the column's contribution to tau.  Even counts take the
    midpoint.  A column whose median is zero has no positive fit and raises.
    """
    if N < 2:
        raise MutationError("N must be >= 2")
    K = p.K
    a = []
    for j in range(K):
        col = sorted(p.p[i][j] for i in range(K) if i != j)
        n = len(col)
        if n % 2:
            med = col[n // 2]
        else:
            med = _exact_div(col[n // 2 - 1] + col[n // 2], 2)
        if med <= 0:
            raise MutationError(f"column {j} off-diagonal median is 0, no positive fit")
        a.append(2 * N * med)
    return DirichletParams(a)


@dataclass(frozen=True)
class TransitionProbs:
    """Success probabilities q(x) of one reproduction-plus-mutation round,
    with the drift decomposition q_j = decay_j + inflow_j (j = 1..K-1) where
    decay_j = W_j (1 - sigma_j) and inflow_j = T_j = p_Kj + sum (p_kj - p_Kj) W_k."""

    q: tuple
    decay: tuple
    inflow: tuple


def transition_probs(p: MutationMatrix, x: Sequence[int], N: int) -> TransitionProbs:
    """q_j(x) = sum_k p_kj x_k / N for the count vector x.

    x gives the first K-1 counts; the last is N - sum(x)."""
    K = p.K
    x = [int(v) for v in x]
    if len(x) != K - 1:
        raise MutationError(f"expected {K - 1} counts, got {len(x)}")
    if any(v < 0 for v in x):
        raise MutationError("negative count")
    if sum(x) > N:
        raise MutationError(f"counts sum to {sum(x)} > N={N}")
    full = x + [N - sum(x)]
    q = tuple(
        _exact_div(sum(p.p[k][j] * full[k] for k in range(K)), N) for j in range(K)
    )
    w = [_exact_div(v, N) for v in x]
    sig = [
        p.p[K - 1][j] + sum(p.p[j][k] for k in range(K) if k != j)
        for j in range(K - 1)
    ]
    decay = tuple(w[j] * (1 - sig[j]) for j in range(K - 1))
    inflow = tuple(
        p.p[K - 1][j]
        + sum((p.p[k][j] - p.p[K - 1][j]) * w[k] for k in range(K - 1) if k != j)
        for j in range(K - 1)
    )
    return TransitionProbs(q=q, decay=decay, inflow=inflow)


def remainder_R(p: MutationMatrix, a: DirichletParams, N: int, w):
    """Remainder of the drift linearization at the point w.

    R_j(w) = (p_Kj - a_j/(2N))(1 - w_j)
           + (sum_{k != j} (a_k/(2N) - p_jk)) w_j
           + sum_{k != j, k < K} (p_kj - p_Kj) w_k

    so that q_j - w_j = (a_j - s w_j)/(2N) + R_j(w) identically.  w may be a
    SimplexPoint or a raw sequence of the K-1 free coordinates; rational
    coordinates keep the result exact.
    """
    K = p.K
    if isinstance(w, SimplexPoint):
        if w.dim != K:
            raise MutationError("dimension mismatch")
        coords = w.coords
    else:
        coords = tuple(_as_number(v) for v in w)
        if len(coords) != K - 1:
            raise MutationError("dimension mismatch")
    if a.dim != K:
        raise MutationError("dimension mismatch")
    target = [_exact_div(a.a[j], 2 * N) for j in range(K)]
    out = []
    for j in range(K - 1):
        first = (p.p[K - 1][j] - target[j]) * (1 - coords[j])
        second = sum(target[k] - p.p[j][k] for k in range(K) if k != j) * coords[j]
        third = sum(
            (p.p[k][j] - p.p[K - 1][j]) * coords[k] for k in range(K - 1) if k != j
        )
        out.append(first + second + third)
    return tuple(out)
