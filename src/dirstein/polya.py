"""Polya urns, their resampled-draw exchangeable pair, and the urn bound.

The urn starts with weights a_i; each draw picks color i with probability
proportional to a_i plus the count of i so far, then adds a ball of that
color.  After n draws the color frequencies W(n) approximate the Dirichlet
law with the same parameters, and redrawing just the final ball gives an
exchangeable pair (W, W') whose first two conditional moments match the
approximating generator exactly.  The counts after n draws follow the
Dirichlet-multinomial law DM(n; a) exactly: its rational closed form
checks the pair identities at every reachable state of small urns, and
its float table (urn_law) gives the certification deterministic gaps
whenever its grid is no larger than the sample it replaces.  Larger grids
fall back to sampled end states.  The certification step holds the gaps
against the closed-form bound for every battery function.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

import numpy as np

from .bounds import BoundReport, theorem4_bound
from .chains import _batch_multinomial
from .metrics import (
    GapEstimate,
    StationaryTable,
    _state_grid,
    attach_exact_means,
    gap_table_csv,
    make_battery,
    smooth_gap,
)
from .simplex import (
    DirichletParams,
    _falling,
    _power_moment,
    _rising,
    as_generator,
    dirichlet_mixed_moment,
)

# exact pair verification enumerates reachable count vectors; beyond this
# the K^n draw tree stops being worth collapsing and MC takes over
EXACT_DRAWS_LIMIT = 10
EXACT_COLORS_LIMIT = 3


class PolyaError(ValueError):
    pass


def _categorical(g, probs):
    """One draw per row of probs (R, K)."""
    u = g.random(len(probs))
    cum = np.cumsum(probs, axis=1)
    return (u[:, None] >= cum[:, :-1]).sum(axis=1)


def _params(a) -> DirichletParams:
    return a if isinstance(a, DirichletParams) else DirichletParams(tuple(a))


@dataclass(frozen=True)
class UrnState:
    """Urn contents after n draws.

    counts holds the first K-1 color draw counts (the last color is the
    remainder).  prev_counts and last_draw retain the step from n-1 to n,
    which is what the redraw pair needs; simulate_urn always fills them.
    """

    a: tuple
    n: int
    counts: tuple
    prev_counts: tuple | None = None
    last_draw: int | None = None

    def __post_init__(self):
        if len(self.a) < 2 or any(v <= 0 for v in self.a):
            raise PolyaError("a must hold at least two positive weights")
        if self.n < 0:
            raise PolyaError("n must be >= 0")
        if len(self.counts) != len(self.a) - 1:
            raise PolyaError("counts must cover the first K-1 colors")
        if any(c < 0 for c in self.counts) or sum(self.counts) > self.n:
            raise PolyaError("counts must be non-negative and sum to <= n")
        if self.prev_counts is not None:
            if self.last_draw is None or not 0 <= self.last_draw < len(self.a):
                raise PolyaError("prev_counts requires a valid last_draw")
            full_prev = _full(self.prev_counts, self.n - 1)
            if min(full_prev) < 0:
                raise PolyaError("prev_counts must be a valid state at n-1")
            full_prev[self.last_draw] += 1
            if tuple(full_prev[:-1]) != tuple(self.counts):
                raise PolyaError("prev_counts + last_draw must give counts")

    @property
    def K(self) -> int:
        return len(self.a)

    @property
    def w(self) -> np.ndarray:
        """Free-coordinate frequencies counts / n."""
        if self.n == 0:
            raise PolyaError("frequencies are undefined before the first draw")
        return np.asarray(self.counts, dtype=np.float64) / self.n


def _full(counts, n):
    """Extend K-1 free counts to all K colors."""
    counts = list(counts)
    return counts + [n - sum(counts)]


def simulate_urn(a, n: int, rng) -> UrnState:
    """Run n draws and return the end state, keeping the final step.

    Draw j lands on color i with probability (X_i(j-1) + a_i) / (j-1+s).
    """
    p = _params(a)
    if n < 1:
        raise PolyaError("n must be >= 1")
    g = as_generator(rng)
    af = np.array([float(v) for v in p.a])
    s = float(p.s)
    counts = np.zeros(p.dim, dtype=np.int64)
    last = -1
    for j in range(n):
        probs = (counts + af) / (j + s)
        u = g.random()
        last = int(np.searchsorted(np.cumsum(probs), u, side="right"))
        last = min(last, p.dim - 1)  # guard the cumsum roundoff edge
        if j == n - 1:
            prev = tuple(int(c) for c in counts[:-1])
        counts[last] += 1
    return UrnState(
        a=p.a,
        n=n,
        counts=tuple(int(c) for c in counts[:-1]),
        prev_counts=prev,
        last_draw=last,
    )


def sample_final(a, n: int, rng, replicates: int) -> np.ndarray:
    """End-state frequencies W(n) for many independent urns, as (R, K-1).

    Uses the mixture form of the urn law: the draw colors are exchangeable
    and the counts after n draws are a Dirichlet mixture of multinomials,
    so a gamma-normalized weight vector followed by one multinomial per
    replicate reproduces the law exactly at any n.
    """
    p = _params(a)
    if n < 1:
        raise PolyaError("n must be >= 1")
    if replicates < 1:
        raise PolyaError("replicates must be >= 1")
    g = as_generator(rng)
    af = np.array([float(v) for v in p.a])
    gam = g.standard_gamma(af, size=(int(replicates), p.dim))
    q = gam / gam.sum(axis=1, keepdims=True)
    x = _batch_multinomial(g, np.full(int(replicates), n, dtype=np.int64), q)
    return x[:, : p.dim - 1].astype(np.float64) / n


def resample_pair(state: UrnState, rng):
    """Redraw the final ball: returns (W, W') as free-coordinate arrays.

    The replacement color is drawn from the same conditional law as the
    original final draw, given the state at n-1, so the pair is
    exchangeable and W' differs from W in at most two colors.
    """
    if state.n < 1:
        raise PolyaError("the pair needs at least one draw to redraw")
    if state.prev_counts is None:
        raise PolyaError("state does not retain its final draw")
    g = as_generator(rng)
    prev = np.array(_full(state.prev_counts, state.n - 1), dtype=np.float64)
    af = np.array([float(v) for v in state.a])
    probs = (prev + af) / (state.n - 1 + float(sum(af)))
    u = g.random()
    redraw = min(
        int(np.searchsorted(np.cumsum(probs), u, side="right")), state.K - 1
    )
    w = state.w
    w2 = w.copy()
    if state.last_draw < state.K - 1:
        w2[state.last_draw] -= 1.0 / state.n
    if redraw < state.K - 1:
        w2[redraw] += 1.0 / state.n
    return w, w2


# ---------------------------------------------------------------------------
# exact law and moments of the urn


def urn_mixed_moment(a, n: int, exponents):
    """Exact E[prod W_i(n)^(c_i)] over all K coordinates.

    Powers are expanded in falling factorials; a mixed falling moment of
    the counts is (n falling R) * prod (a_i rising r_i) / (s rising R) by
    exchangeability of the draw colors.  Rational parameters give an exact
    Fraction, floats give a float.
    """
    p = _params(a)
    c = tuple(int(e) for e in exponents)
    if len(c) != p.dim:
        raise PolyaError(f"{len(c)} exponents for dimension {p.dim}")
    if any(e < 0 for e in c):
        raise PolyaError("exponents must be non-negative")
    if n < 1:
        raise PolyaError("n must be >= 1")
    num = Fraction if all(isinstance(v, (int, Fraction)) for v in p.a) else float

    def falling(r):
        R = sum(r)
        out = num(_falling(n, R))
        for ai, ri in zip(p.a, r):
            out *= _rising(num(ai), ri)
        return out / _rising(num(p.s), R)

    return _power_moment(c, falling) / num(n) ** sum(c)


def urn_law(a, n: int) -> StationaryTable:
    """The law of the free counts after n draws, DM(n; a), as a float
    table on metrics._state_grid(n, K), normalised to mass one.

    Up to a constant, log P(x) = sum_t g_t(x_t) over all K colors, with
    g_t(k) = sum_{i<k} log((a_t + i) / (i + 1)) taken as a cumulative sum:
    unlike lgamma(a + k) - lgamma(a) it keeps its accuracy for weights from
    the smallest subnormal to about 1e308 / K.  resolution bounds the L1
    distance to the exact law: rounding of each term (its input included)
    and of each partial sum is at most u (|term| + 4) and u |partial sum|,
    u the unit roundoff, which bounds the log-probability error d; the
    normalised table is then off by at most 2 (e^(d+u) - 1) + (S + 2) u in
    L1, doubled here for margin.
    """
    p = _params(a)
    if n < 1:
        raise PolyaError("n must be >= 1")
    u = np.finfo(np.float64).eps / 2
    states = _state_grid(n, p.dim)
    last = n - states.sum(axis=1)
    i = np.arange(n, dtype=np.float64)
    logp = np.zeros(len(states))
    err = peak = 0.0
    for t, at in enumerate(p.floats()):
        terms = np.log((at + i) / (i + 1.0))
        g = np.concatenate([[0.0], np.cumsum(terms)])
        logp += g[states[:, t] if t < p.dim - 1 else last]
        err += u * (np.abs(terms).sum() + 4.0 * n + np.abs(g).sum())
        peak += float(np.abs(g).max())
    # the K - 1 sums over colors and the shift by the maximum
    err += u * (p.dim + 1) * peak
    probs = np.exp(logp - logp.max())
    probs /= probs.sum()
    S = len(probs)
    resolution = 2.0 * (2.0 * math.expm1(err + u) + (S + 2) * u)
    return StationaryTable(states, probs, n, "polya-urn", resolution, "closed-form")


# ---------------------------------------------------------------------------
# conditional-moment identities of the redraw pair


def _dm_law(a, n: int):
    """Exact law of the full count vector after n draws, {tuple: Fraction}:
    the Dirichlet-multinomial DM(n; a), with probability
    n! / prod x_i! * prod a_i^(x_i) / s^(n) in rising factorials."""
    a = tuple(Fraction(v) for v in a)
    # rising[t][k] = a_t^(k), one product per step
    rising = [list(accumulate((v + k for k in range(n)), mul, initial=Fraction(1))) for v in a]
    total = _rising(sum(a), n)
    law = {}
    for free in _state_grid(n, len(a)).tolist():
        x = free + [n - sum(free)]
        pr = Fraction(math.factorial(n))
        for xi, r in zip(x, rising):
            pr *= r[xi] / math.factorial(xi)
        law[tuple(x)] = pr / total
    return law


@dataclass(frozen=True)
class PairIdentityReport:
    """Worst-case residuals of the pair's first three conditional moments.

    Exact mode carries rational residuals with zero tolerance; MC mode
    carries float residuals with four-stderr tolerances.  triple_excess is
    the largest E|D_i D_j D_k| minus n^-3 (must stay <= tolerance) and
    distinct_triple the largest such expectation over distinct colors
    (zero in both modes, since at most two colors move).
    """

    n: int
    k: int
    exact: bool
    states: int
    drift_residual: object
    drift_tol: float
    second_residual: object
    second_tol: float
    triple_excess: object
    triple_tol: float
    distinct_triple: object

    @property
    def ok(self) -> bool:
        return (
            self.drift_residual <= self.drift_tol
            and self.second_residual <= self.second_tol
            and self.triple_excess <= self.triple_tol
            and self.distinct_triple == 0
        )


def _drift_target(a, s, n, i, w_i):
    return (a[i] - s * w_i) / (n * (n + s - 1))


def _second_target(a, s, n, i, j, w):
    diag = (a[i] + (2 * n + s) * w[i]) if i == j else 0
    num = diag - a[i] * w[j] - a[j] * w[i] - 2 * n * w[i] * w[j]
    return num / (n**2 * (n + s - 1))


def _exact_pair_report(p: DirichletParams, n: int) -> PairIdentityReport:
    a = tuple(Fraction(v) for v in p.a)
    K = len(a)
    s = sum(a)
    prev_law = _dm_law(a, n - 1)
    denom = n - 1 + s
    zero = Fraction(0)
    finals = {}
    triple = defaultdict(lambda: zero)
    for xp, pr in prev_law.items():
        q = [(xp[i] + a[i]) / denom for i in range(K)]
        for y in range(K):
            w_path = pr * q[y]
            if w_path == 0:
                continue
            xf = list(xp)
            xf[y] += 1
            xf = tuple(xf)
            rec = finals.setdefault(xf, [zero, [zero] * K, defaultdict(lambda: zero)])
            rec[0] += w_path
            for y2 in range(K):
                if y2 == y or q[y2] == 0:
                    continue
                wt = w_path * q[y2]
                # the W'-W increments: +1/n at the redraw, -1/n at the draw
                d = {y2: Fraction(1, n), y: Fraction(-1, n)}
                for i, di in d.items():
                    rec[1][i] += wt * di
                    for j, dj in d.items():
                        rec[2][(i, j)] += wt * di * dj
                        for k2, dk in d.items():
                            triple[(i, j, k2)] += wt * abs(di * dj * dk)
    drift_res = zero
    second_res = zero
    for xf, (prob, drift, second) in finals.items():
        w = [Fraction(xf[i], n) for i in range(K)]
        for i in range(K):
            r = abs(drift[i] / prob - _drift_target(a, s, n, i, w[i]))
            drift_res = max(drift_res, r)
            for j in range(K):
                r2 = abs(second[(i, j)] / prob - _second_target(a, s, n, i, j, w))
                second_res = max(second_res, r2)
    cap = Fraction(1, n**3)
    excess = max(
        (triple[(i, j, k2)] - cap for i in range(K) for j in range(K) for k2 in range(K)),
        default=zero,
    )
    distinct = max(
        (
            triple[(i, j, k2)]
            for i in range(K)
            for j in range(K)
            for k2 in range(K)
            if len({i, j, k2}) == 3
        ),
        default=zero,
    )
    return PairIdentityReport(
        n=n,
        k=K,
        exact=True,
        states=len(finals),
        drift_residual=drift_res,
        drift_tol=0,
        second_residual=second_res,
        second_tol=0,
        triple_excess=excess,
        triple_tol=0,
        distinct_triple=distinct,
    )


def _mc_pair_report(p: DirichletParams, n, rng, replicates) -> PairIdentityReport:
    g = as_generator(rng)
    R = int(replicates)
    K = p.dim
    af = np.array([float(v) for v in p.a])
    s = float(p.s)
    counts = np.zeros((R, K), dtype=np.float64)
    rows = np.arange(R)
    for j in range(n - 1):
        idx = _categorical(g, (counts + af) / (j + s))
        counts[rows, idx] += 1.0
    q = (counts + af) / (n - 1 + s)
    y = _categorical(g, q)
    y2 = _categorical(g, q)
    xf = counts.copy()
    xf[rows, y] += 1.0
    w = xf / n
    delta = np.zeros((R, K))
    delta[rows, y2] += 1.0 / n
    delta[rows, y] -= 1.0 / n
    if int((np.abs(delta) > 0).sum(axis=1).max(initial=0)) > 2:
        raise PolyaError("redraw moved more than two colors")

    def worst(err):
        m = err.mean(axis=0)
        se = err.std(axis=0, ddof=1) / math.sqrt(R)
        i = int(np.argmax(np.abs(m)))
        return abs(float(m.flat[i])), 4.0 * float(se.flat[i]) + 1e-12

    drift_err = delta - (af - s * w) / (n * (n + s - 1))
    drift_res, drift_tol = worst(drift_err.reshape(R, -1))
    pair_err = np.empty((R, K * K))
    for i in range(K):
        for j in range(K):
            diag = (af[i] + (2 * n + s) * w[:, i]) if i == j else 0.0
            num = diag - af[i] * w[:, j] - af[j] * w[:, i] - 2 * n * w[:, i] * w[:, j]
            pair_err[:, i * K + j] = delta[:, i] * delta[:, j] - num / (
                n**2 * (n + s - 1)
            )
    second_res, second_tol = worst(pair_err)
    ad = np.abs(delta)
    excess = -math.inf
    distinct = 0.0
    for i in range(K):
        for j in range(K):
            for k2 in range(K):
                prod = ad[:, i] * ad[:, j] * ad[:, k2]
                m = float(prod.mean())
                se = float(prod.std(ddof=1)) / math.sqrt(R)
                excess = max(excess, m - 1.0 / n**3 - 4.0 * se)
                if len({i, j, k2}) == 3:
                    distinct = max(distinct, m)
    return PairIdentityReport(
        n=n,
        k=K,
        exact=False,
        states=R,
        drift_residual=drift_res,
        drift_tol=drift_tol,
        second_residual=second_res,
        second_tol=second_tol,
        triple_excess=excess,
        triple_tol=0.0,
        distinct_triple=distinct,
    )


def verify_pair_identities(a, n: int, rng=None, replicates: int = 100_000):
    """Check the redraw pair's conditional drift, covariance and triple
    bounds against their closed forms.

    Up to EXACT_DRAWS_LIMIT draws and EXACT_COLORS_LIMIT colors the check
    is exact at every reachable state (rational arithmetic, residuals must
    be identically zero).  Beyond that it falls back to aggregated MC
    residuals with four-stderr tolerances, which is a weaker statement.
    """
    p = _params(a)
    if n < 1:
        raise PolyaError("n must be >= 1")
    if n <= EXACT_DRAWS_LIMIT and p.dim <= EXACT_COLORS_LIMIT:
        # float weights still get an exact check: Fraction(v) keeps their
        # binary value, so residuals are exact for the weights as given
        return _exact_pair_report(p, n)
    if rng is None:
        raise PolyaError("MC identity check needs an rng")
    return _mc_pair_report(p, n, rng, replicates)


# ---------------------------------------------------------------------------
# certification against the closed-form bound


@dataclass(frozen=True)
class UrnCertification:
    """Per-function gaps |E h(W(n)) - E h(Z)| held against the bound.

    law says where the non-monomial gaps came from: "exact" (the urn_law
    table, or no such gap at all) or "sampled" (sample_final draws).
    states is the size C(n+K-1, K-1) of the law's grid, and resolution the
    exact table's L1 noise floor (0 when no table was built)."""

    a: tuple
    n: int
    report: BoundReport
    gaps: tuple
    law: str
    states: int
    resolution: float

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.gaps)

    def diagnostics(self) -> list:
        """The law's provenance as `key = value` lines."""
        return [
            f"law = {self.law}",
            f"states = {self.states}",
            "resolution = %.17g" % self.resolution,
        ]

    def record(self) -> str:
        """Flat text summary; the per-function table lives in csv()."""
        worst = max((g.gap / g.bound for g in self.gaps if g.bound > 0), default=0.0)
        head = [
            "certification = urn-after-n-draws",
            f"passed = {str(self.passed).lower()}",
            f"functions = {len(self.gaps)}",
            "worst_gap_over_bound = %.17g" % worst,
        ] + self.diagnostics()
        return "\n".join(head) + "\n" + self.report.record()

    def csv(self) -> str:
        return gap_table_csv(self.gaps)


def certify_theorem4(
    a, n: int, battery=None, replicates: int = 100_000, rng=None
) -> UrnCertification:
    """Hold every battery gap after n draws against the urn bound.

    Monomial expectations under the urn law have closed forms, so those
    gaps are exact with zero stderr, in rational arithmetic even for
    float weights (a linear h is a martingale, its gap is identically
    zero).  The rest are taken from the law DM(n; a) itself when its grid
    of S = C(n+K-1, K-1) states is no larger than `replicates` (urn_law:
    deterministic, zero stderr, no rng), and otherwise estimated from
    `replicates` end-state samples drawn with `rng`, passing when
    gap - 4 stderr clears the bound.
    """
    p = _params(a)
    if battery is None:
        battery = make_battery(p.dim)
    battery = attach_exact_means(battery, p)
    rep = theorem4_bound(p, n)
    states = math.comb(n + p.dim - 1, p.dim - 1)
    law, source, resolution = "exact", None, 0.0
    if any(h.tag[0] != "monomial" for h in battery):
        if states <= replicates:
            source = urn_law(p, n)
            resolution = source.resolution
        elif rng is None:
            raise PolyaError(
                f"{states} states exceed {replicates} replicates: sampled gaps need an rng"
            )
        else:
            law, source = "sampled", sample_final(p, n, rng, replicates)
    # monomial gaps in Fractions of the weights as given (binary values
    # for floats), so a gap the bound holds at exactly zero is exactly zero
    exact = DirichletParams(tuple(Fraction(v) for v in p.a))
    gaps = []
    for h in battery:
        bound = rep.smooth_bound_for(h)
        if h.tag[0] == "monomial":
            c = tuple(h.tag[1]) + (0,)
            diff = urn_mixed_moment(exact, n, c) - dirichlet_mixed_moment(exact, c)
            gap = abs(float(diff))
            gaps.append(GapEstimate(h.tag, gap, 0.0, float(bound), gap <= bound))
        else:
            gaps.append(smooth_gap(source, p, h, bound))
    return UrnCertification(p.a, n, rep, tuple(gaps), law, states, resolution)
