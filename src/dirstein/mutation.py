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
rates pi (`pim_rates`).  With q_j(x) = sum_k p_kj x_k / N the
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

from .simplex import DirichletParams, _as_number

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
    """The matrix read through the scalars the bounds use."""

    tau: object
    mu: object
    sigma_j: tuple
    tau_j: tuple


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
    return MutationSummary(tau=tau, mu=mu, sigma_j=sigma_j, tau_j=tau_j)


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
