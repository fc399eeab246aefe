"""Closed-form evaluation of the displayed approximation bounds.

Every calculator returns a BoundReport: the three error terms A1, A2, A3
together with the coefficient convention that prices them in the
derivative seminorms of a test function,

    |h|_1/s * A1 + |h|_2/(2(s+1)) * A2 + |h|_{2,1}/(18(s+2)) * A3,

plus the convex-set rate (A1+A2+A3)^(theta/(3+theta)), whose
multiplicative constant depends on the target parameters and is not
computed: convex_rate is the rate alone.  Inputs that arrive as rationals
stay rational all the way to the report; the formulas stack fourth roots
and near-cancellations, so golden values must come out exact.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .simplex import DirichletParams


class BoundError(ValueError):
    pass


def _num(v):
    # keep exact arithmetic whenever the caller gives us exact input
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    return float(v)


def _g17(v) -> str:
    return format(float(v), ".17g")


@dataclass(frozen=True)
class BoundReport:
    """Error terms with their provenance snapshot.

    a1/a2/a3 keep whatever exactness the inputs had (Fraction or float);
    inputs holds model-specific diagnostics such as eta or the radicands.
    """

    theorem: str
    n: int
    k: int
    a: tuple
    s: object
    theta: float
    a1: object
    a2: object
    a3: object
    inputs: dict = field(default_factory=dict)

    @property
    def coeff_h1(self) -> float:
        return float(self.a1) / float(self.s)

    @property
    def coeff_h2(self) -> float:
        return float(self.a2) / (2.0 * (float(self.s) + 1.0))

    @property
    def coeff_h21(self) -> float:
        return float(self.a3) / (18.0 * (float(self.s) + 2.0))

    def smooth_bound(self, h1: float, h2: float, h21: float) -> float:
        return self.coeff_h1 * h1 + self.coeff_h2 * h2 + self.coeff_h21 * h21

    def smooth_bound_for(self, h) -> float:
        return self.smooth_bound(h.h1, h.h2, h.h21)

    @property
    def convex_rate(self) -> float:
        total = float(self.a1) + float(self.a2) + float(self.a3)
        expo = self.theta / (3.0 + self.theta)
        return total**expo

    def check_finite(self):
        """Raise BoundError unless A1, A2, A3, the largest coefficient
        denominator 18(s+2) and the convex rate are finite floats.  Past
        s = 1e307 that denominator overflows and coeff_h21 reads 0."""
        try:
            big = 18.0 * (float(self.s) + 2.0)
            nums = (float(self.a1), float(self.a2), float(self.a3), big, self.convex_rate)
            finite = all(math.isfinite(v) for v in nums)
        except OverflowError:
            finite = False
        if not finite:
            raise BoundError(f"{self.theorem} bound overflows a float at s = {_g17(self.s)}")

    def record(self) -> str:
        """Flat key = value text block, numbers at 17 significant digits."""
        avec = "[" + ", ".join(_g17(v) for v in self.a) + "]"
        lines = [
            f'theorem = "{self.theorem}"',
            f"N = {self.n}",
            f"K = {self.k}",
            f"a = {avec}",
            f"A1 = {_g17(self.a1)}",
            f"A2 = {_g17(self.a2)}",
            f"A3 = {_g17(self.a3)}",
            f"coeff_h1 = {_g17(self.coeff_h1)}",
            f"coeff_h2 = {_g17(self.coeff_h2)}",
            f"coeff_h21 = {_g17(self.coeff_h21)}",
            f"theta = {_g17(self.theta)}",
            f"convex_rate = {_g17(self.convex_rate)}",
        ]
        return "\n".join(lines) + "\n"


def theorem1_bound(summary, a: DirichletParams, N: int, K: int) -> BoundReport:
    """Error terms of the general mutation-rate bound.

    A1 = 2N(K+1) tau, A2 = N K^2 mu^2 + 2 K mu,
    A3 = 8 N K^3 mu^3 + 16 sqrt(2) K^3 / sqrt(N).
    """
    if K != a.dim:
        raise BoundError(f"K={K} does not match parameter dimension {a.dim}")
    if N < 1:
        raise BoundError("N must be positive")
    tau = _num(summary.tau)
    mu = _num(summary.mu)
    if tau < 0 or mu < 0:
        raise BoundError("tau and mu must be non-negative")
    a1 = 2 * N * (K + 1) * tau
    a2 = N * K * K * mu * mu + 2 * K * mu
    # the sqrt(2) term is irrational, so A3 is float no matter what
    a3 = float(8 * N * K**3 * mu**3) + 16.0 * math.sqrt(2.0) * K**3 / math.sqrt(N)
    return BoundReport(
        theorem="theorem1",
        n=N,
        k=K,
        a=a.a,
        s=a.s,
        theta=float(a.theta),
        a1=a1,
        a2=a2,
        a3=a3,
        inputs={"tau": tau, "mu": mu},
    )


def theorem2_bound(mom, pi, N: int, K: int) -> BoundReport:
    """Error terms for a stationary Cannings chain with PIM mutation.

    The chain is compared against Dir(a) with a_i = 2(N-1) pi_i / alpha;
    the scale eta = N alpha^{-1} sum pi_j enters every term.  A1 is zero
    by construction and omitted from the report arithmetic.
    """
    if N < 4:
        raise BoundError("N >= 4 required")
    pi = tuple(_num(v) for v in pi)
    if len(pi) != K:
        raise BoundError(f"need {K} mutation rates, got {len(pi)}")
    if any(v <= 0 for v in pi):
        raise BoundError("all mutation rates must be positive")
    if sum(pi) - min(pi) > 1:
        raise BoundError("mutation rates leave a negative diagonal")
    alpha = _num(mom.alpha)
    beta = _num(mom.beta)
    gamma = _num(mom.gamma)
    if alpha <= 0:
        raise BoundError("degenerate offspring law: alpha = 0")

    spi = sum(pi)
    eta = N * spi / alpha
    a_vec = tuple(2 * (N - 1) * v / alpha for v in pi)
    p = DirichletParams(a_vec)
    aN = alpha / N

    a2 = (
        aN**2 * eta**2 * K**2
        + aN * (eta**2 * (K**2 + 1) + 2 * eta * K**2)
        + 3 * eta * K / N
    )
    radicand_bg = (12 * beta + 24 * gamma) / (alpha * N)
    radicand_eta = 3 * eta**2 * aN + eta / N
    a3 = (
        2.0
        * K**3
        * (1.0 + float(eta) * math.sqrt(float(aN)) + math.sqrt(float(eta) / N))
        * (
            float(eta) * float(aN) ** 0.75
            + float(radicand_bg) ** 0.25
            + float(radicand_eta) ** 0.25 / math.sqrt(N)
        )
        ** 2
    )
    return BoundReport(
        theorem="theorem2",
        n=N,
        k=K,
        a=p.a,
        s=p.s,
        theta=float(p.theta),
        a1=0,
        a2=a2,
        a3=a3,
        inputs={
            "pi": pi,
            "alpha": alpha,
            "beta": beta,
            "gamma": gamma,
            "eta": eta,
            "radicand_bg": radicand_bg,
            "radicand_eta": radicand_eta,
        },
    )


def theorem4_bound(a: DirichletParams, n: int) -> BoundReport:
    """Urn-after-n-draws bound with K = a.dim: A1 = 0, A2 = 2s/n,
    A3 = (K-1)(3K-5)(n+s-1)/n^2."""
    if n < 1:
        raise BoundError("n must be >= 1")
    K = a.dim
    s = a.s
    a2 = 2 * s / Fraction(n) if isinstance(s, (int, Fraction)) else 2 * s / n
    a3_num = (K - 1) * (3 * K - 5) * (n + s - 1)
    a3 = a3_num / Fraction(n) ** 2 if isinstance(a3_num, (int, Fraction)) else a3_num / n**2
    return BoundReport(
        theorem="theorem4",
        n=n,
        k=K,
        a=a.a,
        s=s,
        theta=float(a.theta),
        a1=0,
        a2=a2,
        a3=a3,
        inputs={},
    )


def lemma_budgets_wf(summary, N: int, K: int):
    """Closed-form budgets that dominate the sampled A2 and A3 terms for
    the Wright-Fisher chain: returns (quadratic budget, cubic budget).

    quadratic = N sum_{i,j} (sigma_i+tau_i)(sigma_j+tau_j+2/N)
    cubic = (2/sqrt(N)) (sum [sqrt(2)+sqrt(N)(tau_i+sigma_i)])^2
                         (sum [1+sqrt(N)(tau_i+sigma_i)])
    with all sums over the K-1 free coordinates.
    """
    sig = tuple(_num(v) for v in summary.sigma_j)
    tau = tuple(_num(v) for v in summary.tau_j)
    if len(sig) != K - 1 or len(tau) != K - 1:
        raise BoundError(f"need {K - 1} per-type rates")
    if N < 1:
        raise BoundError("N must be positive")
    st = [sig[i] + tau[i] for i in range(K - 1)]
    two_over_n = Fraction(2, N)
    quad = N * sum(st[i] * (st[j] + two_over_n) for i in range(K - 1) for j in range(K - 1))
    rootN = math.sqrt(N)
    su_a = sum(math.sqrt(2.0) + rootN * float(v) for v in st)
    su_b = sum(1.0 + rootN * float(v) for v in st)
    cubic = (2.0 / rootN) * su_a**2 * su_b
    return quad, cubic
