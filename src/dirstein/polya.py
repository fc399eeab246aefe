"""Polya urns, their resampled-draw exchangeable pair, and the urn bound.

The urn starts with weights a_i; each draw picks color i with probability
proportional to a_i plus the count of i so far, then adds a ball of that
color.  After n draws the color frequencies W(n) approximate the Dirichlet
law with the same parameters, and redrawing just the final ball gives an
exchangeable pair (W, W') whose first two conditional moments match the
approximating generator exactly.  verify_pair_identities checks those
identities exactly at every state after n draws, for any n and K, from
the exchangeability of the draw colors alone, so the pair is never
sampled.  The counts after n draws follow the Dirichlet-multinomial law
DM(n; a) exactly: its float table (metrics.urn_law) gives the
certification deterministic gaps whenever its grid is no larger than the
sample it replaces.  Larger grids fall back to end states drawn exactly from that
law by sample_final.  The certification step holds the gaps against the
closed-form bound for every battery function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .bounds import BoundReport, theorem4_bound
from .chains import _batch_multinomial
from .metrics import (
    GapEstimate,
    _state_grid,
    attach_exact_means,
    make_battery,
    smooth_gap,
    urn_law,
)
from .simplex import (
    DirichletParams,
    _dirichlet_rows,
    _falling,
    _power_moment,
    _rising,
    as_generator,
    dirichlet_mixed_moment,
)


class PolyaError(ValueError):
    pass


def _params(a) -> DirichletParams:
    return a if isinstance(a, DirichletParams) else DirichletParams(tuple(a))


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
    q = _dirichlet_rows(p.floats(), g, int(replicates))
    x = _batch_multinomial(g, np.full(int(replicates), n, dtype=np.int64), q)
    return x[:, : p.dim - 1].astype(np.float64) / n


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


# ---------------------------------------------------------------------------
# conditional-moment identities of the redraw pair


@dataclass(frozen=True)
class PairIdentityReport:
    """Worst-case residuals of the pair's first three conditional moments
    given W, over every state W = x/n after n draws, as exact Fractions.

    drift_residual and second_residual are the largest |E[D | W] - target|
    and |E[D_i D_j | W] - target| with D = W' - W; the identities hold
    when both are exactly zero.  triple_excess is the largest conditional
    E[|D_i D_j D_k| | W] minus n^-3 (at most zero, since |D_i| <= 1/n) and
    distinct_triple the largest such expectation over three distinct
    colors (zero, since at most two colors move).
    """

    n: int
    states: int
    drift_residual: Fraction
    second_residual: Fraction
    triple_excess: Fraction
    distinct_triple: Fraction
    # every check is exact; perfbench's pair check reads this to refuse a
    # Monte Carlo fallback
    exact = True

    @property
    def ok(self) -> bool:
        return (
            self.drift_residual == 0
            and self.second_residual == 0
            and self.triple_excess <= 0
            and self.distinct_triple == 0
        )


def verify_pair_identities(a, n: int) -> PairIdentityReport:
    """Check the redraw pair's conditional drift, covariance and triple
    bounds against their closed forms at every state after n draws.

    The draw colors are exchangeable, so given the counts x the last draw
    has color y with chance x_y / n, and the redraw then has color y' with
    chance q_y'(x - e_y) = (x - e_y + a)_y' / (n - 1 + s).  Each
    conditional moment of D = (e_y' - e_y) / n is thus a sum over the
    K (K - 1) moves y -> y' != y.  Over L (n - 1 + s), L the lcm of the
    denominators of Fraction(a_i) (the binary value of a float weight), a
    move has integer weight x_y (L x_y' + A_y') with A = L a, and the
    generator's moments have integer numerators.  Every state thus costs
    O(K^2) operations on Python integers (object arrays, which cannot
    overflow), and the check is exact at every n and K.
    """
    p = _params(a)
    if n < 1:
        raise PolyaError("n must be >= 1")
    K = p.dim
    frac = [Fraction(v) for v in p.a]
    L = math.lcm(*(f.denominator for f in frac))
    A = [int(f * L) for f in frac]
    Ls = sum(A)
    free = _state_grid(n, K).astype(object)
    x = [free[:, t] for t in range(K - 1)] + [n - free.sum(axis=1)]
    # the pair's moments are normalised by the redraw law's L (n - 1 + s)
    # and the generator's by its own L (n + s - 1); the identities say the
    # two agree, so the check keeps both rather than assume it
    q_den = L * (n - 1) + Ls
    g_den = L * n + Ls - L
    # n q_den P(last draw y, redraw y2 | x), with (x - e_y)_y2 = x_y2
    weight = {
        (y, y2): x[y] * (L * x[y2] + A[y2])
        for y in range(K)
        for y2 in range(K)
        if y2 != y
    }

    def moment(idx, absolute=False):
        """n^(r+1) q_den E[prod_{t in idx} D_t | W], r = len(idx), per
        state (of the product of |D_t| when absolute)."""
        out = 0
        for (y, y2), w in weight.items():
            d = math.prod((t == y2) - (t == y) for t in idx)
            if d == 0:
                continue
            if d > 0 or absolute:
                out += w
            else:
                out -= w
        return out

    def residual(idx, target):
        """max |E[prod D_t | W] - target / (n^(r+1) g_den)| over states."""
        diff = moment(idx) * g_den - target * q_den
        return Fraction(int(np.max(np.abs(diff))), n ** (len(idx) + 1) * q_den * g_den)

    # n^2 L (n + s - 1) (a_i - s w_i) / (n (n + s - 1))
    drift = max(residual((i,), n * A[i] - Ls * x[i]) for i in range(K))
    second = Fraction(0)
    for i, j in combinations_with_replacement(range(K), 2):
        # n^3 L (n + s - 1) times the generator's second moment
        target = -A[i] * x[j] - A[j] * x[i] - 2 * L * x[i] * x[j]
        if i == j:
            target = target + n * A[i] + (2 * n * L + Ls) * x[i]
        second = max(second, residual((i, j), target))
    triples = list(combinations_with_replacement(range(K), 3))
    top = max(int(np.max(moment(t, True))) for t in triples if len(set(t)) < 3)
    distinct = max(
        (int(np.max(moment(t, True))) for t in triples if len(set(t)) == 3),
        default=0,
    )
    cube = n**4 * q_den
    return PairIdentityReport(
        n=n,
        states=len(free),
        drift_residual=drift,
        second_residual=second,
        triple_excess=Fraction(top - n * q_den, cube),
        distinct_triple=Fraction(distinct, cube),
    )


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
