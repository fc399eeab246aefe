"""The Dirichlet characterizing operator and its equation solver.

For Z ~ Dir(a) on the (K-1)-simplex the operator

    (A f)(x) = sum_ij x_i (d_ij - x_j) f_ij(x) + sum_i (a_i - s x_i) f_i(x)

(indices over the K-1 free coordinates, s = sum a) characterizes the law:
E (A f)(Z) = 0 for all twice continuously differentiable f iff Z ~ Dir(a).
The centered equation (A f)(x) = h(x) - E h(Z) has the probabilistic
solution

    -2 f(x) = sum_{n >= 1} E[h~(Z_x(1)) | L_1 = n] E Y_n,

where Y_n is the holding time of a pure-death process at level n, with
E Y_n = 2/(n(n-1+s)), and the level-n state is composed as
N ~ MN_K(n; x), Z | N ~ Dir(a + N).

The sum is truncated at a level M.  The level-n state concentrates at x
(E Z_n = (a + n x)/(s + n)), so the tail past M is h~(x) tail(M) plus a
remainder, with tail(M) = sum_{n > M} E Y_n in closed form.  That leading
term is added exactly.  A second-order Taylor expansion at x bounds
|E h(Z_n) - h(x)| by C/(s+n) for every n > M and every x, so the
remainder of f is at most C tail(M)/(2(s+M+1)) = O(1/M^2), and M grows
like tol^(-1/2); the crude bound sup|h~| tail(M) caps it.  The levels
past LEVEL_SPLIT carry little of the variance, so they are summed on one
replicate in HIGH_SHARE.

This module checks the characterization on monomials, estimates f with
one coupled Monte Carlo engine (shared noise across levels, points and
parameter vectors, so that differences of f between nearby points have
tiny variance; the pointwise solver is its one-point call), verifies the
solution's seminorm bounds, and estimates the generic exchangeable-pair
error terms A1, A2, A3.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .simplex import (
    DirichletParams,
    SimplexPoint,
    _dirichlet_expect,
    as_generator,
    dirichlet_mixed_moment,
    dirichlet_sample,
)

DEFAULT_TRUNCATION_TOL = 1e-4
DEFAULT_INNER_RESAMPLES = 64
# Levels past LEVEL_SPLIT are summed on one replicate in HIGH_SHARE (at
# least two), the first rows of the same stream.  For the battery at
# a = (1,1), (2,3) and (1,1,1) they hold up to 91% of a function's level
# columns at tol 1e-3 (68-97% at 1e-4), but at most 1.2% of the variance
# of f values and of first and second differences (the K=3 bump; 1.0%
# for the rest); the levels past 16 hold up to 4.0%.  The 33 perfbench
# level-sums jobs of seed 7 took 1.47-1.51 s unsplit, 0.36-0.37 s at
# split/share 16/8, 0.39-0.42 s at 32/8, 0.37-0.45 s at 32/16 and
# 0.41-0.42 s at 16/16, with the median worst stderr in 0.0146-0.0149.
LEVEL_SPLIT = 32
HIGH_SHARE = 8


class SteinError(ValueError):
    pass


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """A test function h with certified derivative seminorms.

    fn maps an (..., K-1) coordinate array to values; seminorms are upper
    bounds over the closed simplex with Lipschitz constants taken in the
    L1 norm.  mean holds E h(Z) for a specific Dirichlet law once
    attach_mean has been called; it is None before that.
    """

    tag: tuple
    fn: Callable
    sup_norm: float
    h1: float
    h2: float
    h21: float
    mean: float | None = None
    # certified range of h over the simplex, when known; tightens the
    # centered sup bound, which only caps the truncation remainder
    value_range: tuple | None = None

    @property
    def sup_tilde(self) -> float:
        """Upper bound for the centered sup norm |h - E h(Z)|."""
        if self.mean is None:
            raise SteinError(f"{self.tag}: no mean attached yet")
        if self.value_range is not None:
            lo, hi = self.value_range
            return max(hi - self.mean, self.mean - lo)
        return self.sup_norm + abs(self.mean)


def attach_mean(h: TestFunction, a: DirichletParams) -> TestFunction:
    """Return h with E h(Z) filled in for the law Dir(a).

    Monomials use exact mixed moments; cosines, sines and, for K <= 3,
    bumps (on the box of the bump's support) the nested Gauss rule of
    `_dirichlet_expect`.  Any other family has no exact rule and is
    refused.
    """
    kind = h.tag[0]
    if kind == "monomial":
        return replace(h, mean=float(dirichlet_mixed_moment(a, tuple(h.tag[1]) + (0,))))
    if kind in ("cos", "sin"):
        return replace(h, mean=_dirichlet_expect(a, h.fn))
    if kind == "bump" and a.dim <= 3:
        centers, rho = h.tag[1], h.tag[2]
        window = [(c - rho, c + rho) for c in centers]
        return replace(h, mean=_dirichlet_expect(a, h.fn, window))
    raise SteinError(f"{h.tag}: no exact mean rule for this family at K = {a.dim}")


# ---------------------------------------------------------------------------
# the characterization check


def characterization_residual(a: DirichletParams, exponents) -> float:
    """E (A f)(Z) for the monomial f(x) = prod x_i^{c_i}; identically zero.

    Uses the closed form sum_i c_i (c_i - 1 + a_i) m(c - e_i)
    - |c| (|c| - 1 + s) m(c) with exact mixed moments, so the returned
    residual is a genuine structural check, not a sampling one.
    """
    c = tuple(int(v) for v in exponents)
    if len(c) != a.dim - 1:
        raise SteinError(f"need {a.dim - 1} exponents, got {len(c)}")
    if any(v < 0 for v in c):
        raise SteinError("negative exponent")
    total = sum(c)
    if total == 0:
        return 0.0
    acc = (
        -Fraction(total)
        * (total - 1 + a.s)
        * _as_frac(dirichlet_mixed_moment(a, c + (0,)))
    )
    for i, ci in enumerate(c):
        if ci == 0:
            continue
        lower = list(c)
        lower[i] -= 1
        acc += (
            Fraction(ci)
            * (ci - 1 + _as_frac(a.a[i]))
            * _as_frac(dirichlet_mixed_moment(a, tuple(lower) + (0,)))
        )
    return float(abs(acc))


def _as_frac(v):
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    return Fraction(float(v))


def characterization_mc(a: DirichletParams, exponents, rng, mc_samples: int):
    """MC estimate (mean, stderr) of E (A f)(Z) for the monomial f.

    The generator applied to a monomial is again a short polynomial, so
    the whole sample is evaluated in vectorized form; the mean must sit
    within a few stderr of zero when Z really is Dirichlet(a).
    """
    c = tuple(int(v) for v in exponents)
    if len(c) != a.dim - 1:
        raise SteinError(f"need {a.dim - 1} exponents, got {len(c)}")
    if any(v < 0 for v in c):
        raise SteinError("negative exponent")
    if mc_samples < 2:
        raise SteinError("need at least two samples")
    w = dirichlet_sample(a, rng, size=int(mc_samples))
    af = np.array([float(v) for v in a.a[:-1]])
    s = float(a.s)

    def power(expos):
        out = np.ones(len(w))
        for i, e in enumerate(expos):
            if e:
                out = out * w[:, i] ** e
        return out

    vals = np.zeros(len(w))
    for i, ci in enumerate(c):
        if ci == 0:
            continue
        di = list(c)
        di[i] -= 1
        grad_i = ci * power(di)
        vals += (af[i] - s * w[:, i]) * grad_i
        # diagonal second-derivative term x_i (1 - x_i) f_ii
        if ci >= 2:
            dii = list(di)
            dii[i] -= 1
            vals += w[:, i] * (1.0 - w[:, i]) * ci * (ci - 1) * power(dii)
        for j, cj in enumerate(c):
            if j == i or cj == 0:
                continue
            dij = list(di)
            dij[j] -= 1
            vals += -w[:, i] * w[:, j] * ci * cj * power(dij)
    return float(vals.mean()), float(vals.std(ddof=1)) / math.sqrt(len(vals))


# ---------------------------------------------------------------------------
# death-process schedule


# B_2k / 2k for k = 1..5, the coefficients of digamma's asymptotic series
_PSI_SERIES = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0)


def _tail_exact(M: int, s: float) -> float:
    """sum_{n > M} 2/(n(n-1+s)) = 2 (psi(M+s) - psi(M+1)) / (s-1).

    With c = s - 1 the psi difference is divided by c term by term, so
    nothing cancels near s = 1: the terms 1/(n(n+c)) are summed up to
    n = 32, then log1p(c/x)/c plus the asymptotic series in u = 1/(x+c)
    and v = 1/x, where (u^2k - v^2k)/c = -sum_j u^(2k-j) v^(j+1).
    """
    c = float(s) - 1.0
    x = float(M) + 1.0
    head = 0.0
    while x < 32.0:
        head += 1.0 / (x * (x + c))
        x += 1.0
    u, v = 1.0 / (x + c), 1.0 / x
    rest = math.log1p(c * v) / c if c else v
    rest += 0.5 * u * v
    up = [u**i for i in range(2 * len(_PSI_SERIES) + 1)]
    vp = [v**i for i in range(2 * len(_PSI_SERIES) + 1)]
    for k, coef in enumerate(_PSI_SERIES, 1):
        # u^(2k) v + u^(2k-1) v^2 + ... + u v^(2k)
        rest += coef * sum(map(operator.mul, up[2 * k : 0 : -1], vp[1 : 2 * k + 1]))
    return 2.0 * (head + rest)


def remainder_rate(a: DirichletParams, h: TestFunction, M: int) -> float:
    """C with |E h(Z_n) - h(x)| <= C/(s+n) for every level n > M and x.

    Taylor at x over the free coordinates, T = s + n: the linear term is at
    most |h|_1 |a - s x|_1 / T, the quadratic one (|h|_2/2) E|Z_n - x|_1^2
    <= (|h|_2/2)(K-1) sum_i E(Z_n,i - x_i)^2, and each term of that sum is
    at most 1/(4(T+1)) + 1/(4T) + (a_i - s x_i)^2/T^2 (the Beta variance
    given the counts, the multinomial spread, the drift).  Both sums over
    i are convex in x, so they are taken at their worst vertex
    (a.vertex_drift, computed once per law).
    """
    d1, d2 = a.vertex_drift
    d = a.dim - 1
    return h.h1 * d1 + 0.5 * h.h2 * d * (0.5 * d + d2 / (float(a.s) + M + 1.0))


def _tail_remainder(a: DirichletParams, h: TestFunction, M: int, tail: float) -> float:
    """Bound on |f - (level sums to M) - leading term| at any x: half of
    sum_{n > M} C/(s+n) E Y_n, capped by the crude sup|h~| tail(M)."""
    C = remainder_rate(a, h, M)
    return tail * min(C / (2.0 * (float(a.s) + M + 1.0)), h.sup_tilde)


@dataclass(frozen=True)
class DeathProcessSchedule:
    """Holding-time means E Y_n = 2/(n(n-1+s)) up to level M with the exact
    mass of the discarded tail."""

    s: float
    M: int
    ey: np.ndarray
    tail: float

    @classmethod
    def for_tolerance(
        cls, a: DirichletParams, h: TestFunction, tol: float = DEFAULT_TRUNCATION_TOL
    ) -> "DeathProcessSchedule":
        """The smallest M >= 8 whose certified remainder for h under Dir(a)
        is at most tol.

        The remainder falls with M.  Since tail(M) ~ 2/(M + s/2), it is
        about min(C/((M+s+1)(M+s/2)), 2 sup|h~|/(M+s/2)) for large M, so
        the search starts where that reaches tol and gallops away from
        there until it brackets the answer, which it then bisects."""
        if not tol > 0:
            raise SteinError("tolerance must be positive")
        s = float(a.s)

        def charge(M):
            return _tail_remainder(a, h, M, _tail_exact(M, s))

        # tail(8) is finite and positive, so charge(8) is finite iff this is
        if not math.isfinite(_tail_remainder(a, h, 8, 1.0)):
            raise SteinError(f"{h.tag}: no finite truncation bound")
        crude = 2.0 * h.sup_tilde / tol - 0.5 * s
        lo = hi = 8
        for _ in range(2):
            # (M+s+1)(M+s/2) = C/tol, with C = remainder_rate at the last guess
            C = remainder_rate(a, h, hi)
            root = 0.5 * (math.sqrt((0.5 * s + 1.0) ** 2 + 4.0 * C / tol) - 1.5 * s - 1.0)
            hi = max(8, math.ceil(min(root, crude, 2.0**62)))
        step = 1
        while charge(hi) > tol:
            lo, hi, step = hi + 1, hi + step, 2 * step
        step = 1
        while lo < hi:
            probe = max(lo, hi - step)
            if charge(probe) > tol:
                lo = probe + 1
                break
            hi, step = probe, 2 * step
        while lo < hi:
            mid = (lo + hi) // 2
            if charge(mid) <= tol:
                hi = mid
            else:
                lo = mid + 1
        return cls.with_levels(s, hi)

    @classmethod
    def with_levels(cls, s, M: int) -> "DeathProcessSchedule":
        """The schedule summed to level M >= 0; at M = 0 an f value is its
        leading term plus the certified remainder."""
        try:
            m = int(M)
        except (TypeError, ValueError, OverflowError):
            m = None
        if m is None or m != M or m < 0:
            raise SteinError(f"level count must be a non-negative integer, got {M!r}")
        s = float(s)
        n = np.arange(1, m + 1, dtype=np.float64)
        return cls(s=s, M=m, ey=2.0 / (n * (n - 1.0 + s)), tail=_tail_exact(m, s))

    @property
    def total(self) -> float:
        return float(self.ey.sum())

    def remainder(self, a: DirichletParams, h: TestFunction) -> float:
        """Certified bound on the error of f truncated at M plus its
        leading tail term, at every point."""
        return _tail_remainder(a, h, self.M, self.tail)

    def check_params(self, a: DirichletParams):
        if abs(self.s - float(a.s)) > 1e-9:
            raise SteinError(
                f"schedule built for s={self.s}, parameters have s={float(a.s)}"
            )


# ---------------------------------------------------------------------------
# pointwise solver


def solve_stein_f(
    a: DirichletParams,
    h: TestFunction,
    x: SimplexPoint,
    schedule: DeathProcessSchedule,
    mc_per_level: int,
    rng,
):
    """Estimate f(x) with the coupled engine at the single point x.

    Returns (estimate, stderr, truncation bound).  Each of the mc_per_level
    replicates sums h over one level-n state per n <= min(schedule.M,
    LEVEL_SPLIT), and high_replicates of them also over the levels past
    that, weighted by E Y_n; the sums are centered by E h(Z).  The engine
    checks the mean, the dimension and the replicate count.
    """
    schedule.check_params(a)
    sums = stein_level_sums(
        [a], [[h]], [x], mc_per_level, rng, levels_override=schedule.M
    )
    return sums.f_hat(0, 0, 0)


# ---------------------------------------------------------------------------
# coupled batch engine

# The death-process representation only constrains the marginal law at each
# level; the coupling across levels, grid points, and parameter vectors is
# free.  We realize level n as the first n of a shared stream of marked
# exponentials: trial m carries a uniform u_m (its category is the interval
# of u_m in the cumulative coordinates of the point) and a weight
# E_m ~ Exp(1).  Category-k gamma mass at level n is then
# gamma_k + sum_{m<=n} E_m 1{cat_m = k} with a Gamma(a_k) head, which gives
# exactly N ~ MN_K(n; x), Z ~ Dir(a+N) per level while making f-differences
# across points and levels low-variance.  Every replicate sums the levels
# up to LEVEL_SPLIT (the low band); only the first high_replicates rows go
# on past it (the high band), and an estimate adds the two band means.


def high_replicates(replicates: int, levels: int) -> int:
    """Rows of `replicates` that also sum the levels past LEVEL_SPLIT when
    the deepest level is `levels`: none when no level lies past it."""
    if levels <= LEVEL_SPLIT:
        return 0
    return max(2, -(-int(replicates) // HIGH_SHARE))


@dataclass(frozen=True)
class LevelSums:
    """Per-replicate weighted level sums for a grid of points, parameter
    vectors, and test functions, ready for coupled estimates.  S holds the
    levels n <= LEVEL_SPLIT on every replicate, S_high the levels past it
    on the first high_replicates rows of the same stream.  Each f estimate
    adds the exact leading tail term and is charged only the certified
    remainder."""

    points: tuple
    battery: tuple  # tuple per parameter vector, same tags across them
    S: np.ndarray  # (R, P, A, H) float64, levels n <= LEVEL_SPLIT
    S_high: np.ndarray  # (R_H, P, A, H) float64, levels n > LEVEL_SPLIT
    levels: np.ndarray  # (A, H) truncation level per (params, h)
    ey_sums: np.ndarray  # (A, H) sum of E Y_n up to the level
    lead: np.ndarray  # (P, A, H) leading tail term h~(x_p) tail
    rem: np.ndarray  # (A, H) certified remainder of each f value

    @property
    def replicates(self) -> int:
        return self.S.shape[0]

    @property
    def high_replicates(self) -> int:
        return self.S_high.shape[0]

    def f_hat(self, p: int, ai: int, hi: int):
        """(estimate, stderr, truncation bound) of f at grid point p."""
        return self.f_combo({p: 1.0}, ai, hi)

    def f_combo(self, weights: dict, ai: int, hi: int):
        """Linear combination sum w_p f(x_p) with coupled stderr.

        weights: {point index: coefficient}.  Centering uses the exact
        coefficient sum, so it cancels for contrasts.  The estimate is
        mean_R(low) + mean_RH(high), with variance var(low)/R +
        var(high)/RH + 2 cov(low[:RH], high)/R, since the two bands share
        only their first RH rows.  A constant h (|h|_1 = 0) has h~ = 0, so
        its f is exactly 0 and the engine leaves its columns empty."""
        h = self.battery[ai][hi]
        trunc = sum(abs(wp) for wp in weights.values()) * float(self.rem[ai, hi])
        if h.h1 == 0.0:
            return 0.0, 0.0, trunc
        low = np.zeros(self.replicates)
        high = np.zeros(self.high_replicates)
        wsum = lead = 0.0
        for p, wp in weights.items():
            low += wp * self.S[:, p, ai, hi]
            high += wp * self.S_high[:, p, ai, hi]
            lead += wp * self.lead[p, ai, hi]
            wsum += wp
        low = -(low + lead - wsum * h.mean * self.ey_sums[ai, hi]) / 2.0
        est, var = low.mean(), low.var(ddof=1) / len(low)
        RH = len(high)
        if RH:
            high /= -2.0
            est += high.mean()
            cov = (low[:RH] - low[:RH].mean()) @ (high - high.mean()) / (RH - 1)
            var += high.var(ddof=1) / RH + 2.0 * cov / len(low)
        return float(est), math.sqrt(max(var, 0.0)), trunc

    def f_diff(self, p: int, q: int, ai: int, hi: int):
        """f(x_p) - f(x_q) with the coupling-reduced stderr."""
        return self.f_combo({p: 1.0, q: -1.0}, ai, hi)


def _battery_sums(Zs, specs, ey, out):
    """Add the weighted level sums of a column block to out.

    Zs holds one float32 (rows, cols) block per free coordinate and ey the
    float32 weights E Y_n of its columns; specs lists (column of out, tag,
    width) of non-constant tags, each evaluated only out to its own width.  Powers
    and trig phases are built once at the widest width that uses them, and
    constant factors are applied to the (rows,) sums, not to the block."""
    powers, phases = {}, {}
    for _, tag, w in specs:
        if tag[0] == "monomial":
            for k, ci in enumerate(tag[1]):
                for e in range(1, ci + 1):
                    powers[k, e] = max(powers.get((k, e), 0), w)
        elif tag[0] in ("cos", "sin"):
            phases[tag[1]] = max(phases.get(tag[1], 0), w)
    for (k, e), w in sorted(powers.items()):
        z = Zs[k][:, :w]
        powers[k, e] = z if e == 1 else powers[k, e - 1][:, :w] * z
    for w_vec, w in phases.items():
        y = None
        for k, wv in enumerate(w_vec):
            if wv:
                t = Zs[k][:, :w] * np.float32(wv) if wv != 1 else Zs[k][:, :w]
                y = t if y is None else y + t
        phases[w_vec] = y
    for col, tag, w in specs:
        kind, scale = tag[0], 1.0
        if kind == "monomial":
            v = None
            for k, ci in enumerate(tag[1]):
                if ci:
                    pk = powers[k, ci][:, :w]
                    v = pk if v is None else v * pk
        elif kind in ("cos", "sin"):
            ufunc = np.cos if kind == "cos" else np.sin
            v = ufunc(phases[tag[1]][:, :w])
        elif kind == "bump":
            # (1 - ((z - c)/rho)^2)_+^3 = (rho^2 - (z - c)^2)_+^3 / rho^6
            center, rho = tag[1], tag[2]
            r2 = np.float32(rho * rho)
            v = None
            for k, ctr in enumerate(center):
                d = Zs[k][:, :w] - np.float32(ctr)
                np.multiply(d, d, out=d)
                np.subtract(r2, d, out=d)
                np.maximum(d, np.float32(0.0), out=d)
                b = d * d
                b *= d
                v = b if v is None else v * b
            scale = float(rho) ** (-6 * len(center))
        else:
            raise SteinError(f"batch engine cannot evaluate family {kind}")
        s = np.einsum("ij,j->i", v, ey[:w])
        out[:, col] += s if scale == 1.0 else scale * s
    return out


def _point_block_sums(E, masks, carries, gam32, inv_denom, specs, ey_by_a, c0, H):
    """(rows, A, H) weighted level sums of one column block at one point.

    masks[k] marks the trials that fall in category k, carries[k] is that
    category's mass before the block; per params, Z = (gamma head +
    category mass) / total mass and the battery is summed over it.  The
    block is walked in column tiles of about 1 MB of float64 so that the
    intermediates stay in cache."""
    rows, cols = E.shape
    tile = max(256, (1 << 17) // rows)
    carries = list(carries)
    out = np.zeros((rows, len(specs), H))
    for t0 in range(0, cols, tile):
        t1 = min(t0 + tile, cols)
        cum_bs = []
        for k, ind in enumerate(masks):
            cum = np.multiply(E[:, t0:t1], ind[:, t0:t1])
            cum[:, 0] += carries[k]
            np.cumsum(cum, axis=1, out=cum)
            carries[k] = cum[:, -1]
            cum_bs.append(cum.astype(np.float32))
        for ai, (gam, inv, spec) in enumerate(zip(gam32, inv_denom, specs)):
            spec = [(hi, tag, min(w, t1) - t0) for hi, tag, w in spec if w > t0]
            if not spec:
                continue
            w = max(s[2] for s in spec)
            Zs = []
            for k, cum in enumerate(cum_bs):
                z = np.add(cum[:, :w], gam[:, k, None])
                z *= inv[:, t0 : t0 + w]
                Zs.append(z)
            _battery_sums(Zs, spec, ey_by_a[ai][c0 + t0 : c0 + t0 + w], out[:, ai])
    return out


def stein_level_sums(
    params_list: Sequence[DirichletParams],
    battery_list: Sequence[Sequence[TestFunction]],
    points: Sequence,
    replicates: int,
    rng,
    tol: float = DEFAULT_TRUNCATION_TOL,
    levels_override: int | None = None,
    row_chunk: int = 512,
    col_block: int = 4096,
) -> LevelSums:
    """Shared-noise level sums for every (point, params, h) combination.

    All points and parameter vectors ride on one stream of marked
    exponentials per replicate, so contrasts between grid points (slopes,
    second differences, operator stencils) come out with strongly reduced
    variance.  Truncation levels are per (params, h), from
    DeathProcessSchedule.for_tolerance (or levels_override for all), and
    each carries its leading tail term and certified remainder.  The
    levels past LEVEL_SPLIT are summed on the first high_replicates rows
    only; row chunks end at that row and column blocks at LEVEL_SPLIT, so
    each chunk and block adds to one band.
    """
    A = len(params_list)
    if len(battery_list) != A:
        raise SteinError("battery_list must parallel params_list")
    tags = tuple(h.tag for h in battery_list[0])
    if len(set(tags)) != len(tags):
        raise SteinError("duplicate tags in the battery")
    for bat in battery_list:
        if tuple(h.tag for h in bat) != tags:
            raise SteinError("batteries must share the same tag sequence")
        for h in bat:
            if h.mean is None:
                raise SteinError(f"{h.tag}: attach_mean before the batch engine")
    H = len(tags)
    K = params_list[0].dim
    pts = []
    for pt in points:
        if isinstance(pt, SimplexPoint):
            pt = pt.coords
        elif np.isscalar(pt):
            pt = (pt,)
        coords = tuple(float(v) for v in pt)
        if len(coords) != K - 1:
            raise SteinError("point dimension mismatch")
        pts.append(coords)
    P = len(pts)
    R = int(replicates)
    if R < 2:
        raise SteinError("need at least 2 replicates")

    scheds = [
        [
            DeathProcessSchedule.with_levels(a.s, levels_override)
            if levels_override is not None
            else DeathProcessSchedule.for_tolerance(a, h, tol)
            for h in bat
        ]
        for a, bat in zip(params_list, battery_list)
    ]
    levels = np.array([[sc.M for sc in row] for row in scheds], dtype=np.int64)
    # a constant h (|h|_1 = 0) has f = 0 (LevelSums.f_combo): no columns
    span = levels * np.array([[h.h1 != 0.0 for h in bat] for bat in battery_list])
    ey_sums = np.array([[sc.total for sc in row] for row in scheds])
    tails = np.array([[sc.tail for sc in row] for row in scheds])
    rem = np.array(
        [
            [sc.remainder(a, h) for sc, h in zip(row, bat)]
            for row, a, bat in zip(scheds, params_list, battery_list)
        ]
    )
    xs = np.array(pts, dtype=np.float64)
    h_tilde = np.array(
        [[np.asarray(h.fn(xs), dtype=np.float64) - h.mean for h in bat] for bat in battery_list]
    )
    lead = h_tilde.transpose(2, 0, 1) * tails
    M_max = int(levels.max())
    ey_by_a = [
        DeathProcessSchedule.with_levels(a.s, M_max).ey.astype(np.float32)
        for a in params_list
    ]

    # category boundaries of each point, as float32 thresholds on u
    bounds = [
        [np.float32(b) for b in np.cumsum([0.0] + list(c))] for c in pts
    ]
    heads = [a.floats() for a in params_list]
    R_H = high_replicates(R, M_max)
    S = np.zeros((R, P, A, H), dtype=np.float64)
    S_high = np.zeros((R_H, P, A, H), dtype=np.float64)
    g = as_generator(rng)
    done = 0
    while done < R:
        r = min(row_chunk, (R_H if done < R_H else R) - done)
        M_rows = M_max if done < R_H else min(M_max, LEVEL_SPLIT)
        # gamma heads, one per (replicate, params); fixed draw order
        gam = [g.standard_gamma(heads[ai], size=(r, K)) for ai in range(A)]
        gam32 = [gm.astype(np.float32) for gm in gam]
        gamt = [gm.sum(axis=1, keepdims=True) for gm in gam]
        carry_t = np.zeros(r)
        carry_b = np.zeros((P, K - 1, r))
        c0 = 0
        while c0 < M_rows:
            cb = min(col_block, M_rows - c0)
            if c0 < LEVEL_SPLIT:
                cb = min(cb, LEVEL_SPLIT - c0)
            band = S if c0 < LEVEL_SPLIT else S_high
            u = g.random((r, cb), dtype=np.float32)
            E = g.standard_exponential((r, cb), dtype=np.float32).astype(np.float64)
            cum_t = np.cumsum(E, axis=1)
            cum_t += carry_t[:, None]
            carry_t = cum_t[:, -1].copy()
            # per params: live tags with their widths in this block and
            # the reciprocal total mass, shared across points
            specs, inv_denom = [], []
            for ai in range(A):
                spec = [
                    (hi, tags[hi], int(min(span[ai, hi] - c0, cb)))
                    for hi in range(H)
                    if span[ai, hi] > c0
                ]
                specs.append(spec)
                inv = None
                if spec:
                    w = max(s[2] for s in spec)
                    inv = np.add(cum_t[:, :w], gamt[ai], dtype=np.float32)
                    np.reciprocal(inv, out=inv)
                inv_denom.append(inv)
            del cum_t
            for p in range(P):
                masks = []
                for k in range(K - 1):
                    lo, up = bounds[p][k], bounds[p][k + 1]
                    masks.append(u < up if lo == 0 else (u >= lo) & (u < up))
                band[done : done + r, p] += _point_block_sums(
                    E, masks, carry_b[p], gam32, inv_denom, specs, ey_by_a, c0, H
                )
                for k, ind in enumerate(masks):
                    carry_b[p, k] += np.einsum("ij,ij->i", E, ind)
            c0 += cb
        done += r

    battery = tuple(tuple(bat) for bat in battery_list)
    return LevelSums(
        points=tuple(pts),
        battery=battery,
        S=S,
        S_high=S_high,
        levels=levels,
        ey_sums=ey_sums,
        lead=lead,
        rem=rem,
    )


# ---------------------------------------------------------------------------
# solution-bound verification


@dataclass(frozen=True)
class SolutionBoundReport:
    """Measured f against the solution-seminorm budgets."""

    f_values: tuple  # (estimate, stderr, truncation) per grid point
    sup_estimate: float
    sup_budget: float
    sup_slack: float
    fd1_estimate: float
    fd1_budget: float
    fd1_slack: float
    fd2_estimate: float | None
    fd2_budget: float
    fd2_slack: float
    checks_pass: bool


def verify_solution_bounds(
    a: DirichletParams,
    h: TestFunction,
    grid: Sequence,
    schedule: DeathProcessSchedule,
    rng,
    replicates: int = 4096,
) -> SolutionBoundReport:
    """Estimate f on the grid and test it against the solution bounds.

    sup|f| is checked against (s+1)/s sup|h~|; divided first differences
    (L1-normalized) against |h|_1/s; equispaced second divided differences
    against |h|_2/(2(s+1)).  Divided differences equal derivatives at
    interior mean-value points, so they are valid probes at any spacing;
    the coupled engine keeps their noise small.
    """
    schedule.check_params(a)
    if h.mean is None:
        raise SteinError("attach_mean before verifying bounds")
    sums = stein_level_sums(
        [a], [[h]], list(grid), replicates, rng, levels_override=schedule.M
    )
    P = len(sums.points)
    fvals = [sums.f_hat(p, 0, 0) for p in range(P)]
    s = float(a.s)

    sup_budget = (s + 1.0) / s * h.sup_tilde
    sup_est = max(abs(v[0]) for v in fvals)
    sup_slack = max(4 * v[1] + v[2] for v in fvals)

    fd1_budget = h.h1 / s
    fd1_est = 0.0
    fd1_slack = 0.0
    for p in range(P):
        for q in range(p + 1, P):
            dist = sum(abs(x - y) for x, y in zip(sums.points[p], sums.points[q]))
            dist += abs(
                (1 - sum(sums.points[p])) - (1 - sum(sums.points[q]))
            )
            if dist == 0:
                continue
            est, se, trunc = sums.f_diff(p, q, 0, 0)
            if abs(est) / dist > fd1_est:
                fd1_est = abs(est) / dist
                fd1_slack = (4 * se + trunc) / dist

    fd2_budget = h.h2 / (2.0 * (s + 1.0))
    fd2_est = None
    fd2_slack = 0.0
    if a.dim == 2:
        xs = [pt[0] for pt in sums.points]
        for p in range(P):
            for q in range(p + 1, P):
                for t in range(q + 1, P):
                    d1 = xs[q] - xs[p]
                    d2 = xs[t] - xs[q]
                    if d1 <= 0 or abs(d1 - d2) > 1e-12:
                        continue
                    est, se, trunc = sums.f_combo({p: 1.0, q: -2.0, t: 1.0}, 0, 0)
                    val = abs(est) / d1**2
                    if fd2_est is None or val > fd2_est:
                        fd2_est = val
                        fd2_slack = (4 * se + trunc) / d1**2

    ok = sup_est <= sup_budget + sup_slack and fd1_est <= fd1_budget + fd1_slack
    if fd2_est is not None:
        ok = ok and fd2_est <= fd2_budget + fd2_slack
    return SolutionBoundReport(
        f_values=tuple(fvals),
        sup_estimate=sup_est,
        sup_budget=sup_budget,
        sup_slack=sup_slack,
        fd1_estimate=fd1_est,
        fd1_budget=fd1_budget,
        fd1_slack=fd1_slack,
        fd2_estimate=fd2_est,
        fd2_budget=fd2_budget,
        fd2_slack=fd2_slack,
        checks_pass=bool(ok),
    )


# ---------------------------------------------------------------------------
# exchangeable-pair error terms


@dataclass(frozen=True)
class PairHooks:
    """Closed-form conditional structure of an exchangeable pair.

    remainder(W) -> (R, K-1): the drift remainder R(W);
    cond_second(W) -> (R, K-1, K-1): E[(W'-W)_m (W'-W)_j | W]."""

    remainder: Callable | None = None
    cond_second: Callable | None = None


@dataclass(frozen=True)
class NestedConfig:
    """Inner resampling for conditional moments when no closed form exists.

    resample(W, rng, r_inner) -> (R, r_inner, K-1) of W' draws given each
    row of W."""

    resample: Callable
    r_inner: int = DEFAULT_INNER_RESAMPLES


@dataclass(frozen=True)
class PairBound:
    a1: float
    a2: float
    a3: float
    a1_se: float
    a2_se: float
    a3_se: float
    s: float
    theta: float
    scalar_coeff: bool

    @property
    def a3_constant(self) -> float:
        return 18.0 if self.scalar_coeff else 6.0

    def smooth_bound(self, h1: float, h2: float, h21: float) -> float:
        """|h|_1 A1/s + |h|_2 A2/(2(s+1)) + |h|_{2,1} A3/(c(s+2))."""
        return (
            h1 * self.a1 / self.s
            + h2 * self.a2 / (2.0 * (self.s + 1.0))
            + h21 * self.a3 / (self.a3_constant * (self.s + 2.0))
        )

    def smooth_bound_for(self, h: TestFunction) -> float:
        return self.smooth_bound(h.h1, h.h2, h.h21)

    @property
    def convex_rate(self) -> float:
        """(A1+A2+A3)^(theta/(3+theta)); the multiplicative constant is not
        computable and stays symbolic."""
        base = self.a1 + self.a2 + self.a3
        return float(base ** (self.theta / (3.0 + self.theta)))


def exchangeable_pair_bound(
    pair_sampler: Callable,
    lam: np.ndarray,
    a: DirichletParams,
    rng,
    hooks: PairHooks | None = None,
    nested: NestedConfig | None = None,
    outer_samples: int = 4096,
) -> PairBound:
    """Monte-Carlo estimates of the error terms A1, A2, A3.

    pair_sampler(rng, size) must return (W, W') arrays of shape
    (size, K-1) drawn from the stationary exchangeable pair.  Conditional
    structure comes from hooks when closed forms exist, else from nested
    resampling; A3 needs neither (its absolute moment is unconditional).
    """
    lam = np.asarray(lam, dtype=np.float64)
    Km1 = a.dim - 1
    if lam.shape != (Km1, Km1):
        raise SteinError(f"Lambda must be {(Km1, Km1)}, got {lam.shape}")
    try:
        lam_inv = np.linalg.inv(lam)
    except np.linalg.LinAlgError as exc:
        raise SteinError("Lambda is singular") from exc
    if not np.all(np.isfinite(lam_inv)) or np.linalg.cond(lam) > 1e12:
        raise SteinError("Lambda is singular or near singular")
    if hooks is None and nested is None:
        raise SteinError("need conditional-moment hooks or a nested-MC config")
    if nested is not None and nested.r_inner < 2:
        raise SteinError("nested MC needs r_inner >= 2")
    g = as_generator(rng)
    R = int(outer_samples)
    W, Wp = pair_sampler(g, R)
    W = np.asarray(W, dtype=np.float64)
    Wp = np.asarray(Wp, dtype=np.float64)
    D = Wp - W
    s = float(a.s)
    af = a.floats()[:-1]
    absinv = np.abs(lam_inv)
    col_w = absinv.sum(axis=0)  # sum_i |inv_{i,m}| for each m

    # conditional structure, closed form where supplied, else inner resampling
    inner_d = None
    if nested is not None:
        inner = np.asarray(nested.resample(W, g, nested.r_inner), dtype=np.float64)
        inner_d = inner - W[:, None, :]
    if hooks is not None and hooks.cond_second is not None:
        cond2 = np.asarray(hooks.cond_second(W), dtype=np.float64)
    elif inner_d is not None:
        cond2 = np.einsum("rim,rij->rmj", inner_d, inner_d) / nested.r_inner
    else:
        raise SteinError("A2 needs cond_second or nested resampling")

    if hooks is not None and hooks.remainder is not None:
        rem = np.asarray(hooks.remainder(W), dtype=np.float64)
    elif inner_d is not None:
        rem = inner_d.mean(axis=1) - (af - s * W) @ lam.T
    else:
        raise SteinError("A1 needs a remainder hook or nested resampling")

    # A1: per-sample sum_m (sum_i |inv_{i,m}|) |R_m|
    a1_vals = np.abs(rem) @ col_w
    # A2: per-sample sum over (m, i, j)
    a2_vals = np.zeros(R)
    for m in range(Km1):
        for i in range(Km1):
            wgt = absinv[i, m]
            if wgt == 0.0:
                continue
            for j in range(Km1):
                core = lam[m, i] * W[:, i] * ((1.0 if i == j else 0.0) - W[:, j])
                a2_vals += wgt * np.abs(core - cond2[:, m, j] / 2.0)
    # A3: per-sample sum over (m, j, k) with weight col_w[m]
    a3_vals = np.zeros(R)
    absD = np.abs(D)
    for m in range(Km1):
        prod = absD[:, m][:, None, None] * absD[:, None, :] * absD[:, :, None]
        a3_vals += col_w[m] * prod.reshape(R, -1).sum(axis=1)

    def mstat(v):
        return float(v.mean()), float(v.std(ddof=1) / math.sqrt(R))

    a1, a1_se = mstat(a1_vals)
    a2, a2_se = mstat(a2_vals)
    a3, a3_se = mstat(a3_vals)
    scalar = bool(
        np.allclose(lam, lam[0, 0] * np.eye(Km1), rtol=0.0, atol=0.0)
    )
    return PairBound(
        a1=a1,
        a2=a2,
        a3=a3,
        a1_se=a1_se,
        a2_se=a2_se,
        a3_se=a3_se,
        s=s,
        theta=float(a.theta),
        scalar_coeff=scalar,
    )
