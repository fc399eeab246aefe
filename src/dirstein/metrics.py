"""Distance estimators, the certified test-function battery, and exact
stationary tables for small chains.

The battery ships closed-form derivative seminorms per function family.
Distances come in two strengths: smooth-function gaps (the quantity the
bounds control) and a Kolmogorov distance for two types.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .chains import ChainModel, StationaryRun, check_irreducible
from .offspring import (
    KIND_DIRICHLET_MULTINOMIAL,
    KIND_WRIGHT_FISHER,
    _value_classes,
)
from .simplex import (
    DirichletParams,
    _dirichlet_rule,
    _falling,
    _stirling2_row,
)
from .stein import SteinError, TestFunction, attach_mean


class MetricsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the test-function battery


def _mono_sup(c):
    """sup over the simplex of prod x_i^{c_i} (free coordinates)."""
    t = sum(c)
    if t == 0:
        return 1.0
    return float(np.prod([(ci / t) ** ci for ci in c if ci]))


def _mono_seminorms(c):
    d = len(c)
    h1 = 0.0
    for i in range(d):
        if c[i]:
            e = list(c)
            e[i] -= 1
            h1 = max(h1, c[i] * _mono_sup(e))
    h2 = 0.0
    h21 = 0.0
    for drop in itertools.combinations_with_replacement(range(d), 2):
        mult = [drop.count(i) for i in range(d)]
        if any(c[i] < mult[i] for i in range(d)):
            continue
        coef = 1
        for i in range(d):
            coef *= _falling(c[i], mult[i])
        h2 = max(h2, coef * _mono_sup([c[i] - mult[i] for i in range(d)]))
    for drop in itertools.combinations_with_replacement(range(d), 3):
        mult = [drop.count(i) for i in range(d)]
        if any(c[i] < mult[i] for i in range(d)):
            continue
        coef = 1
        for i in range(d):
            coef *= _falling(c[i], mult[i])
        h21 = max(h21, coef * _mono_sup([c[i] - mult[i] for i in range(d)]))
    return h1, h2, h21


def _monomial(c):
    c = tuple(int(v) for v in c)
    h1, h2, h21 = _mono_seminorms(c)
    sup = _mono_sup(c)
    return TestFunction(
        tag=("monomial", c),
        fn=lambda z, c=c: np.prod(
            np.asarray(z, dtype=np.float64)[..., : len(c)] ** np.asarray(c), axis=-1
        ),
        sup_norm=sup,
        h1=h1,
        h2=h2,
        h21=h21,
        value_range=(0.0, sup),
    )


def _trig(kind, w):
    """cos(w.x) or sin(w.x) with w >= 0, so the phase ranges over
    [0, max w] and the extreme of each derivative is explicit."""
    w = tuple(float(v) for v in w)
    if any(v < 0 for v in w):
        raise MetricsError("battery trig weights are nonnegative")
    wmax = max(w)
    msin = 1.0 if wmax >= math.pi / 2 else math.sin(wmax)
    if kind == "cos":
        f = np.cos
        sup = 1.0
        h1, h2, h21 = wmax * msin, wmax**2, wmax**3 * msin
        vr = (math.cos(min(wmax, math.pi)), 1.0)
    elif kind == "sin":
        f = np.sin
        sup = msin if wmax <= math.pi else 1.0
        h1, h2, h21 = wmax, wmax**2 * msin, wmax**3
        vr = (0.0, sup) if wmax <= math.pi else (-1.0, 1.0)
    else:
        raise MetricsError(f"unknown trig kind {kind!r}")
    return TestFunction(
        tag=(kind, w),
        fn=lambda z, f=f, w=w: f(
            np.asarray(z, dtype=np.float64)[..., : len(w)] @ np.asarray(w)
        ),
        sup_norm=sup,
        h1=h1,
        h2=h2,
        h21=h21,
        value_range=vr,
    )


# extrema of b(u) = (1-u^2)^3 and its first three derivatives on [-1, 1]
_BUMP_D1 = 96.0 * math.sqrt(5.0) / 125.0
_BUMP_D2 = 6.0
_BUMP_D3 = 48.0


def _bump(centers, rho):
    """Separable product of one-dimensional bumps (1-u^2)_+^3 with
    u = (x_i - center_i)/rho.  Smooth everywhere, compact support."""
    centers = tuple(float(v) for v in centers)

    def fn(z, centers=centers, rho=rho):
        z = np.asarray(z, dtype=np.float64)
        out = 1.0
        for i, ci in enumerate(centers):
            u = (z[..., i] - ci) / rho
            out = out * np.maximum(1.0 - u * u, 0.0) ** 3
        return out

    d1 = _BUMP_D1 / rho
    d2 = _BUMP_D2 / rho**2
    d3 = _BUMP_D3 / rho**3
    return TestFunction(
        tag=("bump", centers, rho),
        fn=fn,
        sup_norm=1.0,
        h1=d1,
        # among second partials the pure one dominates: d2 > d1^2 for
        # rho = 1/4; likewise d3 > d2*d1 for the third order
        h2=max(d2, d1 * d1),
        h21=max(d3, d2 * d1),
        value_range=(0.0, 1.0),
    )


def make_battery(K: int) -> tuple:
    """The standard test functions for a K-type model.

    Monomials up to total degree three, cosine and sine waves at small
    and moderate frequencies, and one compactly supported bump.  Means
    are not attached; callers do that per target law.
    """
    if K not in (2, 3):
        raise MetricsError("battery is shipped for K in {2, 3}")
    fns = [_monomial(tuple(c)) for c in _exponents(K - 1, 3)[1:].tolist()]
    if K == 2:
        fns += [_trig(kind, (w,)) for kind in ("cos", "sin") for w in (1.0, 3.0)]
        fns.append(_bump((0.5,), 0.25))
    else:
        ws = [(1, 0), (0, 1), (2, 1), (1, 2), (3, 0), (0, 3)]
        fns += [_trig(kind, w) for kind in ("cos", "sin") for w in ws]
        fns.append(_bump((1.0 / 3.0, 1.0 / 3.0), 0.25))
    return tuple(fns)


# ---------------------------------------------------------------------------
# smooth-function gaps


@dataclass(frozen=True)
class GapEstimate:
    """|E h(W) - E h(Z)|, or an upper bound on it for an enclosed wave,
    with its Monte-Carlo error and the bound it is held against; passed
    means the gap minus four stderr clears it.  half_width is the part of
    an enclosed wave's gap that is its interval's half-width, and
    control_error the part of a controlled gap's stderr that bounds its
    controls' moment and rounding error (`ExactMoments.controls`), else 0."""

    h_tag: tuple
    gap: float
    stderr: float
    bound: float
    passed: bool
    half_width: float = 0.0
    control_error: float = 0.0


def _rows(sample, d, replicates, copies=False):
    """The (n, d) rows of a StationaryRun or raw array, and the replicate
    count: a StationaryRun supplies its own meta["replicates"] when
    `replicates` is None.  With copies, a raw array may also be
    (R, n, d): R copies of each of n draws (`chains.redraw_types`)."""
    rows = sample
    if isinstance(sample, StationaryRun):
        rows = sample.samples
        if replicates is None:
            replicates = sample.meta["replicates"]
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim not in ((2, 3) if copies else (2,)) or rows.shape[-1] != d:
        shape = "(n, K-1) or (copies, n, K-1)" if copies else "(n, K-1)"
        raise MetricsError(f"sample must be {shape} for the law's K")
    return rows, replicates


def _mean_se(vals, replicates):
    """The mean of vals and its stderr: over iid rows, or over the chains'
    batch means when row i is a round of chain i % replicates."""
    est, n = float(vals.mean()), len(vals)
    if replicates is None or replicates >= n:
        se = float(vals.std(ddof=1)) / math.sqrt(n)
    elif replicates < 2:
        raise MetricsError("correlated rounds need at least two replicates")
    else:
        dev = np.bincount(np.arange(n) % replicates, weights=vals - est)
        se = math.sqrt(replicates / (replicates - 1) * float(dev @ dev)) / n
    return est, se


def smooth_gap(
    sample,
    a: DirichletParams,
    h: TestFunction,
    bound,
    replicates=None,
    moments=None,
) -> GapEstimate:
    """Estimate |E h(W) - E h(Z)| from a stationary sample or exact table.

    The sample may be a StationaryRun, a raw (n, K-1) array, a raw
    (R, n, K-1) array of R copies of each of n draws, or a
    StationaryTable; a table contributes no sampling noise and E h(Z)
    is exact, so the stderr is then 0.  Sample rows are
    independent unless `replicates` says that row i is a round of chain
    i % replicates: rounds of one chain are correlated, so the stderr is
    then taken over the chains' batch means.  A StationaryRun supplies
    its own meta["replicates"] when `replicates` is None.  Copies are
    the type redraws of a genealogy run (`chains.redraw_types`): h, and
    its control correction below, are averaged over the copies of each
    draw first, and the mean and stderr are taken over those n averages,
    since the copies of one draw are correlated.  Every copy is an exact
    draw, so the mean is unchanged and the variance is never higher.

    `moments`, the chain's exact stationary moments (`exact_moments`),
    make a sample's monomial of degree <= moments.degree exact like a
    table's.  A wave takes no draw either: its gap is
    |E p(W) - E h(Z)| + half-width from `moments.enclose`, a
    deterministic upper bound, with stderr 0.  Every other h is sampled
    as h(W) - beta_h . (c(W) - mu): c are the monomials of degree
    1..moments.degree, mu = E c(W) exact and beta_h the L2(Dir(a))
    projection of h on them (`ExactMoments.controls`), which uses
    neither the sample nor an rng; the moments must be `projected` on a.
    The mean is unchanged and the variance is what the projection leaves;
    the stderr adds the controls' error: the moments' error weighted by
    |beta_h| and the rounding of the corrections.
    """
    if h.mean is None:
        raise SteinError(f"{h.tag}: attach_mean before taking gaps")
    exact = None
    half_width = extra = 0.0
    if isinstance(sample, StationaryTable):
        if sample.counts.shape[1] != a.dim - 1:
            raise MetricsError("table dimension does not match the law")
        exact = sample.expect(h.fn), sample.resolution
    elif moments is not None and moments.exact(h):
        i = moments.index(h.tag[1])
        exact = float(moments.values[i]), float(moments.errors[i])
    if exact is not None:
        est, resolution = exact
        se = 0.0
        # sub-resolution gaps are pure solver roundoff; report them as
        # zero so that exactly-zero bounds stay checkable
        if abs(est - h.mean) <= resolution * max(1.0, h.sup_norm):
            est = h.mean
    elif moments is not None and moments.encloses(h):
        (est, half_width), se = moments.enclose(h), 0.0
    else:
        rows, replicates = _rows(sample, a.dim - 1, replicates, copies=True)
        vals = np.asarray(h.fn(rows), dtype=np.float64)
        if vals.ndim == 2:
            vals = vals.mean(axis=0)
        if moments is not None:
            if moments.law != a:
                raise MetricsError("the moments are not projected on this law")
            _, correction, extra = moments.controls(rows, h)
            vals = vals - correction
        est, se = _mean_se(vals, replicates)
        se = math.hypot(se, extra)
    gap = abs(est - h.mean) + half_width
    bound = float(bound)
    return GapEstimate(h.tag, gap, se, bound, gap - 4.0 * se <= bound, half_width, extra)


def gap_table_csv(gaps) -> str:
    """Render gap estimates as CSV with columns h_tag,gap,stderr,bound,pass.

    Tags contain commas, so cells are quoted per the usual CSV rules;
    numbers are written at 17 significant digits.
    """
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["h_tag", "gap", "stderr", "bound", "pass"])
    for gp in gaps:
        tag = gp.h_tag if isinstance(gp.h_tag, str) else repr(gp.h_tag)
        w.writerow(
            [
                tag,
                "%.17g" % gp.gap,
                "%.17g" % gp.stderr,
                "%.17g" % gp.bound,
                "true" if gp.passed else "false",
            ]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# deterministic battery means, so exact-table gaps carry zero stderr


def attach_exact_means(fns, a: DirichletParams) -> tuple:
    """Attach E h(Z) to a battery with no Monte Carlo anywhere.

    attach_mean serves every battery family exactly: monomials by their
    mixed moments, waves and bumps by nested Gauss rules to about 1e-14,
    far below the 1e-12 resolution of a float stationary table.  A family
    with no exact rule is refused."""
    out = []
    for h in fns:
        try:
            out.append(attach_mean(h, a))
        except SteinError as e:
            raise MetricsError(f"no exact mean rule for {h.tag}: {e}") from None
    return tuple(out)


# ---------------------------------------------------------------------------
# regularized incomplete beta, hand-rolled so the Kolmogorov distance has
# no opaque dependency in the measurement path


def _betacf(a, b, x, iterations=400):
    """Continued fraction for the incomplete beta, modified Lentz scheme,
    for scalar a, b and an array x; every eight iterations it stops once
    all lanes' step factors are within 1e-15 of one."""
    x = np.asarray(x, dtype=np.float64)
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < tiny, tiny, d)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, iterations + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        h = h * d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        step = d * c
        h = h * step
        if m % 8 == 0 and float(np.max(np.abs(step - 1.0))) < 1e-15:
            break
    return h


def _reg_inc_beta(x, a, b):
    """I_x(a, b) for scalar a, b > 0 and array x in [0, 1]."""
    a, b = float(a), float(b)
    if a <= 0 or b <= 0:
        raise MetricsError("beta parameters must be positive")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0) or np.any(x > 1):
        raise MetricsError("beta argument outside [0, 1]")
    lead = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    # the fraction converges below the switch; above it, use 1 - I_(1-x)(b, a)
    switch = (a + 1.0) / (a + b + 2.0)
    direct = x < switch
    xs = np.where(direct, x, switch / 2)
    with np.errstate(divide="ignore"):
        bt = np.exp(lead + a * np.log(xs) + b * np.log1p(-xs))
    lo = np.where(xs > 0, bt * _betacf(a, b, xs) / a, 0.0)
    xr = np.where(direct, 1.0 - switch / 2, 1.0 - x)
    with np.errstate(divide="ignore"):
        bt = np.exp(lead + b * np.log(xr) + a * np.log1p(-xr))
    hi = np.where(xr > 0, 1.0 - bt * _betacf(b, a, xr) / b, 1.0)
    out = np.where(direct, lo, hi)
    out = np.where(x == 0.0, 0.0, out)
    out = np.where(x == 1.0, 1.0, out)
    return out


def reg_inc_beta(x, a, b) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    return float(_reg_inc_beta(x, a, b))


# ---------------------------------------------------------------------------
# Kolmogorov distance for two types


@dataclass(frozen=True)
class K2Distance:
    """Kolmogorov distance of the type-1 frequency from Beta(a1, a2);
    interval (cdf-difference) distance is at most twice it."""

    kolmogorov: float


def kolmogorov_k2(sample, a: DirichletParams) -> K2Distance:
    """sup_x |P(W1 <= x) - I_x(a1, a2)| over the sample's jump points.

    For an empirical sample both one-sided discrepancies at each order
    statistic are taken; for an exact table the supremum over atoms is
    exact up to the 1e-10 accuracy of the beta evaluation.
    """
    if a.dim != 2:
        raise MetricsError("kolmogorov distance is for two-type laws")
    a1, a2 = float(a.a[0]), float(a.a[1])
    if isinstance(sample, StationaryTable):
        xs = sample.w[:, 0]
        cdf = np.cumsum(sample.probs)
        theo = _reg_inc_beta(xs, a1, a2)
        below = np.concatenate([[0.0], cdf[:-1]])
        dist = float(np.max(np.abs(np.stack([cdf - theo, below - theo]))))
        return K2Distance(dist)
    rows = sample.samples if isinstance(sample, StationaryRun) else sample
    xs = np.sort(np.asarray(rows, dtype=np.float64).reshape(len(rows), -1)[:, 0])
    n = len(xs)
    theo = _reg_inc_beta(xs, a1, a2)
    i = np.arange(1, n + 1, dtype=np.float64)
    dist = float(max(np.max(i / n - theo), np.max(theo - (i - 1.0) / n)))
    return K2Distance(dist)


# ---------------------------------------------------------------------------
# exact stationary laws for small models


@dataclass(frozen=True)
class StationaryTable:
    """Exact stationary law of an allele-count chain on its state grid.

    resolution is the float linear-algebra noise floor of the solve;
    expectation gaps at or below it are indistinguishable from zero.
    solver names the path that solved it ("krylov" or "dense") and
    iterations counts its GMRES steps (0 for dense)."""

    counts: np.ndarray
    probs: np.ndarray
    N: int
    kind: str
    resolution: float = 1e-12
    solver: str = "dense"
    iterations: int = 0

    @property
    def w(self) -> np.ndarray:
        return self.counts / self.N

    def expect(self, fn) -> float:
        return float(self.probs @ np.asarray(fn(self.w), dtype=np.float64))


_STATE_CAP = 6_000
# the dense Cannings path holds P and LAPACK's copy of it, about 2 8 S^2
# bytes: 67 MB at this cap, where _STATE_CAP would take 576 MB
_DENSE_STATE_CAP = 2_048
_BLOCK = 64  # rows per block of the Cannings factors B and P = G B


def _state_grid(N, K):
    """The compositions (x_1, ..., x_{K-1}) with sum <= N in lexicographic
    order, built one leading coordinate at a time rather than by
    filtering all (N+1)^(K-1) tuples: the row-major nonzeros of the mask
    [total of row r <= N - a] pair each lead a with the rows it extends,
    and the mask holds at most K-1 cells per state it yields."""
    grid = np.arange(N + 1, dtype=np.int64)[:, None]
    for _ in range(K - 2):
        lead, row = np.nonzero(grid.sum(axis=1) <= N - np.arange(N + 1)[:, None])
        grid = np.column_stack([lead, grid[row]])
    return grid


def _log_factorials(n):
    """log(k!) for k = 0..n."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def _grid_index(states, m, N):
    """Position in the lexicographic grid `states` of each composition in
    m, found by its first states.shape[1] coordinates: grid rows read as
    mixed-radix integers in base N + 1 are sorted."""
    radix = (N + 1) ** np.arange(states.shape[1] - 1, -1, -1, dtype=np.int64)
    return np.searchsorted(states @ radix, m[..., : states.shape[1]] @ radix)


def _kr_blocks(N, K):
    """The columns of KR and the blocks of the triangle-only product.

    The columns are the compositions y_R with sum <= N, ordered by their
    sum (lexicographically within one): `lex` is the lexicographic grid
    and `order` its rows in column order (one empty column at K=2).  A
    state (y_l, y_R) has y_l <= N - |y_R|, so the columns of sum t are
    read only on the rows y_l < h(t) = N + 1 - t.  A block (h, c0, c1)
    is a run of sums from t0, forming rows y_l < h(t0) of its columns
    c0:c1.  A block closes at the first sum t with h(t) <= 3/4 h(t0)
    once it holds 16 columns and 16 columns are left, so each GEMM stays
    wide enough that its per-call cost does not outweigh the cells it
    skips (tiny grids keep one block)."""
    if K == 2:
        return np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64), [(N + 1, 0, 1)]
    lex = _state_grid(N, K - 1)
    total = lex.sum(axis=1)
    order = np.argsort(total, kind="stable")
    first = np.searchsorted(total[order], np.arange(N + 2)).tolist()
    starts = [0]
    for t in range(1, N + 1):
        t0 = starts[-1]
        if 4 * (N + 1 - t) <= 3 * (N + 1 - t0) and min(first[t] - first[t0], first[-1] - first[t]) >= 16:
            starts.append(t)
    ends = starts[1:] + [N + 1]
    return lex, order, [(N + 1 - t0, first[t0], first[t1]) for t0, t1 in zip(starts, ends)]


def _wf_operator(model: ChainModel, states):
    """The left product v -> v @ P of the Wright-Fisher rows on `states`,
    without forming P.

    A multinomial row factorises over types: with q = x Pm / N and, per
    row, the pivot p = argmax q (so q_p >= 1/K), the last other type l
    and the rest R,
        P[x, y] = L[x, y_l] * prod_{i in R} A_i[x, y_i] * M(y),
        L[x, j] = C(N, j) q_l^j q_p^(N-j),   A_i[x, j] = (q_i / q_p)^j,
    where M(y) is the multinomial coefficient of N - y_l over (y_R, y_p).
    L and every A_i are at most one and are taken in log space with
    0 log 0 = 0, so zero mutation rates are exact; M is at most
    (K-1)^N and is a product of exactly rounded binomials.  For each
    pivot group, v @ P is then W = (v * L)^T KR, KR the row-wise
    Khatri-Rao product of the A_i restricted to the C = C(N+K-2, K-2)
    compositions y_R with sum <= N (one column at K=2), read at each
    state's (y_l, y_R) and scaled by M.  W is formed only in the blocks
    of `_kr_blocks`, which skip most cells y_l + |y_R| > N, into one
    packed buffer; the row weights go on the thinner factor (KR up to
    K=3, L beyond), and the weighted factor and W live in buffers kept
    across calls, so the product is not reentrant.  The tables hold about
    8 S (C + N+1) bytes against 8 S^2 for P; C < S at every K.  Rows are
    renormalised as a dense build would be: the row sums P 1 come from
    the transposed contraction once, and their inverses scale v.
    """
    N, K, S = model.N, model.K, len(states)
    full = np.column_stack([states, N - states.sum(axis=1)])
    q = (full / N) @ model.mutation.array()
    with np.errstate(divide="ignore"):
        logq = np.log(q)
    j = np.arange(N + 1)
    lgfact = _log_factorials(N)
    lbinom = lgfact[N] - (lgfact[j] + lgfact[N - j])
    lex, order, blocks = _kr_blocks(N, K)
    comps = lex[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    # where row y_l of each column's block starts in the packed buffer
    start, stride = np.empty(len(comps), dtype=np.int64), np.empty(len(comps), dtype=np.int64)
    size = 0
    for h, c0, c1 in blocks:
        start[c0:c1] = size + np.arange(c1 - c0)
        stride[c0:c1] = c1 - c0
        size += h * (c1 - c0)
    # the rows of each pivot group, contiguous in `perm`; the other types
    # of each pivot p, R first and l last
    pivot = q.argmax(axis=1)
    perm = np.argsort(pivot, kind="stable")
    edges = np.searchsorted(pivot[perm], np.arange(K + 1))
    live = [p for p in range(K) if edges[p] < edges[p + 1]]
    others = np.array([[i for i in range(K) if i != p] for p in range(K)])
    logq = logq[perm]
    lp = logq[np.arange(S), pivot[perm]]
    # log(q_i / q_p) of the other types; a zero rate's -inf stays -inf
    ratio = np.take_along_axis(logq, others[pivot[perm]], axis=1) - lp[:, None]
    # both factors are stored transposed, one column per row x, so that
    # each GEMM reads them along x: LT[j, x] = L[x, j] and KRT = KR^T (at
    # K=2 LT is a view of L, whose GEMV by rows was 10% faster at N=3000).
    # log L = j (log q_l - log q_p) + log C(N, j) + N log q_p, 0 log 0 = 0
    with np.errstate(invalid="ignore"):
        if K == 2:
            LT = np.multiply.outer(ratio[:, -1], j.astype(np.float64)).T
        else:
            LT = np.multiply.outer(j.astype(np.float64), ratio[:, -1])
    LT[0] = 0.0
    LT += lbinom[:, None]
    LT += N * lp
    np.exp(LT, out=LT)
    # log KR = y_R . log(q_R / q_p); a zero rate's -inf becomes -1e300,
    # so 0 log 0 = 0 survives the product and every power of it
    # underflows to zero
    KRT = comps @ np.maximum(ratio[:, :-1], -1e300).T
    np.exp(KRT, out=KRT)
    # each state's cell (y_l, y_R) in each group's packed W, and its
    # coefficient M(y), a product of exactly rounded binomials C(n, k)
    y = full[:, others[live]].transpose(1, 0, 2)
    col = rank[_grid_index(lex, y[..., :-1], N)]
    cell = (np.arange(len(live)) * size)[:, None] + start[col] + y[..., -1] * stride[col]
    coef = np.ones(y.shape[:2])
    if K > 2:
        # only k <= n is read, so only that triangle is filled
        comb = np.zeros((N + 1, N + 1))
        comb[np.tril_indices(N + 1)] = [math.comb(n, k) for n in range(N + 1) for k in range(n + 1)]
        rest = N - y[..., -1]
        for i in range(K - 2):
            coef *= comb[rest, y[..., i]]
            rest = rest - y[..., i]
    # the row weights w = v / P 1 in `perm` order go on the thinner factor,
    # KR on a tie (K <= 3; at K=2 KR is the one column 1, so the weights
    # are the GEMV's vector), scaled into a buffer kept across calls
    w = np.empty(S)
    weighted = KRT if len(comps) <= N + 1 else LT
    scaled = np.empty_like(weighted)
    A, B = (LT, scaled) if weighted is KRT else (scaled, KRT)
    packed = np.empty(len(live) * size)
    rowsum = np.empty(S)
    calls = []
    for g, p in enumerate(live):
        lo, hi = edges[p], edges[p + 1]
        mtab = np.zeros((N + 1, len(comps)))
        mtab[y[g, :, -1], col[g]] = coef[g]
        rowsum[lo:hi] = np.einsum("cx,cx->x", KRT[:, lo:hi], mtab.T @ LT[:, lo:hi])
        o = g * size
        for h, c0, c1 in blocks:
            Bb = w[lo:hi, None] if K == 2 else B[c0:c1, lo:hi].T
            calls.append((A[:h, lo:hi], Bb, packed[o : o + h * (c1 - c0)].reshape(h, c1 - c0)))
            o += h * (c1 - c0)
    cell, coef = cell.ravel(), coef.ravel()

    def apply(v):
        np.divide(v[perm], rowsum, out=w)
        if K > 2:
            np.multiply(weighted, w, out=scaled)
        for Ab, Bb, W in calls:
            np.matmul(Ab, Bb, out=W)
        out = packed[cell]
        out *= coef
        return out.reshape(len(live), S).sum(axis=0)

    return apply


def _merge_keys(key, logw):
    """The distinct rows of key, each with the log-sum-exp of its logw."""
    key, inv = np.unique(key, axis=0, return_inverse=True)
    inv = inv.ravel()
    top = np.full(len(key), -np.inf)
    np.maximum.at(top, inv, logw)
    return key, top + np.log(np.bincount(inv, weights=np.exp(logw - top[inv])))


def _group_law(model: ChainModel, states):
    """G(x) = the rows G[x, m] = P(M = m | x) for a block of type counts x:
    the law of the type-group offspring totals M over the composition
    grid, closed form for Dirichlet-multinomial.  A law given per multiset
    (`_value_classes`) puts n_j of the c_j slots of value u_j on the type
    groups, hypergeometrically, and its largest class L fills the x - s
    slots left, s = sum_{j!=L} n_j: probability prod_{j!=L} multinom(c_j;
    n_j) prod_t (x_t)_(s_t) / (N)_(N - c_L), M = u_L x + sum_{j!=L} (u_j -
    u_L) n_j.  The x-free part is summed once in log space over merged
    keys (u_L, s, offset), so a row costs one term per key (K^2 for
    Moran), not one per slot arrangement."""
    N, K, S = model.N, model.K, len(states)
    lgfact = _log_factorials(N)
    if model.kind == KIND_DIRICHLET_MULTINOMIAL:
        full = np.column_stack([states, N - states.sum(axis=1)])
        # the group totals of a DM(N; phi, ..., phi) offspring vector are
        # DM(N; phi x_1, ..., phi x_K), and a type with no parents has no
        # children; lr[x, m] is the log of the rising factorial (phi x)^(m)
        phi = float(model.offspring.phi)
        n = np.arange(N + 1)
        # phi x + m repeats often (3N values in N^2 cells at phi = 2), so
        # lgamma runs once per distinct value
        arg, inv = np.unique(phi * n[1:, None] + n, return_inverse=True)
        lg = np.array([math.lgamma(v) for v in arg])[inv].reshape(N, N + 1)
        lr = np.vstack([np.where(n == 0, 0.0, -np.inf), lg - lg[:, :1]])
        base = lgfact[N] - lgfact[full].sum(axis=1) - lr[N, N]

        def dm(x):
            logw = base
            for xt, mt in zip(x.T, full.T):
                logw = logw + lr[xt[:, None], mt[None, :]]
            return np.exp(logw)

        return dm
    keys, logws = [], []
    for classes, p in _value_classes(model.offspring):
        uL = max(classes, key=classes.get)
        key = np.zeros((1, 2 * K), dtype=np.int64)
        logw = np.zeros(1)
        for u, c in classes.items():
            if u != uL:
                top = _state_grid(c, K)
                n = np.column_stack([top, c - top.sum(axis=1)])
                step = np.column_stack([n, (u - uL) * n])
                key, logw = _merge_keys(
                    (key[:, None] + step).reshape(-1, 2 * K),
                    (logw[:, None] + lgfact[c] - lgfact[n].sum(axis=1)).reshape(-1),
                )
        keys.append(np.column_stack([np.full(len(key), uL), key]))
        # log p from its exact numerator and denominator: a float p may underflow
        lp = math.log(p.numerator) - math.log(p.denominator)
        logws.append(logw + lp - lgfact[N] + lgfact[classes[uL]])
    key, logw = _merge_keys(np.concatenate(keys), np.concatenate(logws))
    u, s, offset = key[:, 0, None], key[:, 1 : K + 1], key[:, K + 1 :]

    def scatter(x):
        x = x[:, None, :]
        fall = np.where(x >= s, lgfact[x] - lgfact[np.maximum(x - s, 0)], -np.inf)
        m, w = u * x + offset, np.exp(logw + fall.sum(axis=2))
        live = w > 0.0
        cell = np.nonzero(live)[0] * S + _grid_index(states, m[live], N)
        return np.bincount(cell, weights=w[live], minlength=len(x) * S).reshape(len(x), S)

    return scatter


def _mutation_kernel(mutation, states, N):
    """B(m) = the rows B[m, y]: the law of the children's free counts y on
    `states` given group totals m (a block of compositions of N), when
    each child of a type-t parent takes type j with probability
    mutation[t][j], independently.

    Group t's children have counts Mult(m_t, mutation[t]), tabulated on
    the cube {0..N}^(K-1) of free counts in log space with 0 log 0 = 0.
    The K tables are convolved by multiplying their rfftn spectra, zero
    padded to a length L > N, so nothing wraps around.  The rows are not
    clipped at zero: the roundoff, about eps times a row's largest entry,
    is unbiased, while clipping would raise every near-zero entry, and a
    slowly mixing chain sums that bias into its stationary row."""
    K = mutation.K
    cube = (N + 1,) * (K - 1)
    # the least 5-smooth length > N: pocketfft transforms a prime length
    # such as 61 by a slow generic pass
    smooth = (2**a * 3**b * 5**c for a in range(14) for b in range(9) for c in range(6))
    L = min(v for v in smooth if v > N)
    fft = {"s": (L,) * (K - 1), "axes": tuple(range(1, K))}
    y = np.indices(cube).reshape(K - 1, -1)
    ysum = y.sum(axis=0)
    lgfact = _log_factorials(N)
    lgy = lgfact[y].sum(axis=0)
    # logs of the exact rates, by log1p(v - 1) near one; a zero rate's -inf
    # is clipped to -1e300, so 0 log 0 = 0 and any positive count gives 0
    logp = np.array(
        [
            [math.log1p(float(v - 1)) if v > 0.5 else math.log(v) if v else -1e300 for v in row]
            for row in mutation.p
        ]
    )
    rate = logp[:, :-1] @ y
    cells = np.ravel_multi_index(tuple(states.T), fft["s"])

    def rows(m):
        spec = 1.0
        for t in range(K):
            rest = m[:, t, None] - ysum
            # the log multinomial coefficient first, then the rates
            lw = lgfact[m[:, t, None]] - lgfact[np.maximum(rest, 0)] - lgy
            lw += rate[t] + rest * logp[t, -1]
            lw[rest < 0] = -np.inf
            spec = spec * np.fft.rfftn(np.exp(lw).reshape(-1, *cube), **fft)
        return np.fft.irfftn(spec, **fft).reshape(len(m), -1)[:, cells]

    return rows


def _cannings_matrix(model: ChainModel, states):
    """Rows of a Cannings chain, P = G B normalised by rows: G is the law
    of the type-group offspring totals M given x (`_group_law`), B the
    per-child mutation of those totals (`_mutation_kernel`).  Both are
    built in row blocks, so the build holds two S x S arrays and one
    block, not a third array for G."""
    N, S = model.N, len(states)
    full = np.column_stack([states, N - states.sum(axis=1)])
    kernel = _mutation_kernel(model.mutation, states, N)
    B = np.concatenate([kernel(full[lo : lo + _BLOCK]) for lo in range(0, S, _BLOCK)])
    group = _group_law(model, states)
    P = np.empty((S, S))
    for lo in range(0, S, _BLOCK):
        np.matmul(group(full[lo : lo + _BLOCK]), B, out=P[lo : lo + _BLOCK])
    P /= P.sum(axis=1, keepdims=True)
    return P


def _clip_residual(x, product):
    """x clipped at zero and normalised, with the true residual
    |pi P - pi|_inf of the result (inf when nothing positive is left);
    product(v) is v @ P."""
    pi = np.maximum(x, 0.0)
    total = pi.sum()
    if not total > 0.0:
        return pi, math.inf
    pi /= total
    return pi, float(np.max(np.abs(product(pi) - pi)))


def _resolution(S, resid):
    if not math.isfinite(resid):
        # an infinite resolution would pass every gap as roundoff
        raise MetricsError("the solve left no stationary row")
    return max(1e-12, 100.0 * S * resid)


def _krylov_stationary(product, x0):
    """Stationary row vector of a chain by GMRES on pi (I - P) = 0,
    reading P only through product(v) = v @ P, so P need never be formed
    (`_wf_operator`).  x0 is the start row, any row with total one
    (`_dirichlet_start`).  Returns (pi, resolution, iterations).

    Since x0 has total one, the residual x0 P - x0 sums to zero and the
    Krylov space stays in the range of I - P, the sum-zero rows, on
    which I - P is invertible: every iterate keeps the total of one.  The
    Arnoldi basis is orthogonalised by classical Gram-Schmidt applied
    twice, and Givens rotations track the least-squares residual.  Once
    that estimate falls to 1e-13 of the start, each iterate is clipped
    and normalised and its true residual |pi P - pi|_inf is taken.  The
    iteration ends when that residual puts the resolution at its floor,
    when it fails to halve (rounding has stalled it; further steps only
    ill-condition the least-squares problem), or on a near-zero
    subdiagonal (the basis spans an invariant space, so the solve is
    exact).  The best checked row is kept.
    """
    S = len(x0)
    r0 = product(x0) - x0
    beta = float(np.linalg.norm(r0))
    if beta == 0.0:
        return x0, 1e-12, 0
    target = 1e-14 / S  # the residual that puts the resolution at 1e-12
    m = min(S, 32)  # basis capacity, doubled as needed
    V = np.empty((m + 1, S))
    R = np.zeros((m, m))
    V[0] = r0 / beta
    cs, sn, g = [], [], [beta]
    best_pi, best_r = x0, math.inf
    for j in range(S):
        w = V[j] - product(V[j])
        scale = math.sqrt(w @ w)
        h = np.zeros(j + 1)
        for _ in range(2):
            c = V[: j + 1] @ w
            w -= c @ V[: j + 1]
            h += c
        # rounding leaks a nonzero total into w; a basis row off the
        # sum-zero rows carries a piece along pi, which I - P annihilates,
        # and the least-squares system turns singular
        w -= w.sum() / S
        sub = math.sqrt(w @ w)
        breakdown = sub <= 1e-14 * scale
        h = h.tolist()  # the rotations run on Python floats
        for i in range(j):
            h[i], h[i + 1] = cs[i] * h[i] + sn[i] * h[i + 1], cs[i] * h[i + 1] - sn[i] * h[i]
        rho = math.hypot(h[j], sub)
        cs.append(h[j] / rho)
        sn.append(sub / rho)
        h[j] = rho
        g.append(-sn[j] * g[j])
        g[j] *= cs[j]
        if j == m:
            m = min(2 * m, S)
            V = np.concatenate([V, np.empty((m + 1 - len(V), S))])
            R = np.pad(R, (0, m - len(R)))
        R[: j + 1, j] = h
        k = j + 1
        if breakdown or abs(g[k]) <= 1e-13 * beta or k == S:
            x = x0 + np.linalg.solve(R[:k, :k], np.array(g[:k])) @ V[:k]
            pi, resid = _clip_residual(x, product)
            stalled = resid > 0.5 * best_r
            if resid < best_r:
                best_pi, best_r = pi, resid
            if breakdown or stalled or resid <= target or k == S:
                return best_pi, _resolution(S, best_r), k
        V[k] = w / sub


def _solve_stationary(P):
    """Stationary row vector of P by one dense solve of pi (P - I) = 0
    with the last equation replaced by sum(pi) = 1.

    The system matrix is P.T - I with its last row set to ones, built in
    P's own storage and undone after the solve, so the peak is P plus
    LAPACK's working copy.  The residual is taken against the intact P.
    """
    S = len(P)
    diag = P.diagonal().copy()
    last = P[:, -1].copy()
    A = P.T
    A[np.diag_indices(S)] -= 1.0
    A[-1, :] = 1.0
    b = np.zeros(S)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    finally:
        P[:, -1] = last
        P[np.diag_indices(S)] = diag
    pi, resid = _clip_residual(pi, lambda v: v @ P)
    return pi, _resolution(S, resid)


def urn_law(a: DirichletParams, n: int) -> StationaryTable:
    """The law of the free counts after n draws of a Polya urn, DM(n; a),
    as a float table on _state_grid(n, K), normalised to mass one.

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
    if n < 1:
        raise MetricsError("n must be >= 1")
    u = _UNIT
    states = _state_grid(n, a.dim)
    last = n - states.sum(axis=1)
    i = np.arange(n, dtype=np.float64)
    logp = np.zeros(len(states))
    err = peak = 0.0
    for t, at in enumerate(a.floats()):
        terms = np.log((at + i) / (i + 1.0))
        g = np.concatenate([[0.0], np.cumsum(terms)])
        logp += g[states[:, t] if t < a.dim - 1 else last]
        err += u * (np.abs(terms).sum() + 4.0 * n + np.abs(g).sum())
        peak += float(np.abs(g).max())
    # the K - 1 sums over colors and the shift by the maximum
    err += u * (a.dim + 1) * peak
    probs = np.exp(logp - logp.max())
    probs /= probs.sum()
    S = len(probs)
    resolution = 2.0 * (2.0 * math.expm1(err + u) + (S + 2) * u)
    return StationaryTable(states, probs, n, "polya-urn", resolution, "closed-form")


def _dirichlet_start(model: ChainModel, states):
    """The start row of a Wright-Fisher solve on `states`, the full grid:
    the Dirichlet-multinomial DM(N; s m) (`urn_law`), the count law of the
    Dirichlet approximation, with the exact stationary mean m and the
    total s that matches the exact total variance.

    Both come from the degree-2 case of `exact_moments`, over the K - 1
    free coordinates; the last type's follow from W_K = 1 - sum_i W_i.
    Under DM(N; s m), Var W_i = m_i (1 - m_i) (s + N) / (N (s + 1)), so
    with T = 1 - sum m_i^2 and H = 1 - sum E W_i^2 over all K types, the
    total variance T - H gives s = N H / D, D = N (T - H) - T.  That s is
    finite and positive only when the stationary variance exceeds the
    multinomial's (at K=2 whenever p12 + p21 != 1, since the mutation
    eigenvalue enters squared).  Otherwise the start is the uniform row:
    at N = 1 (0/0) and for identical mutation rows (the law is
    multinomial), where D is zero up to the moments' stated errors.  With
    E1 and E2 the summed errors of the first and second moments, D is off
    by at most N (6 E1 + 3 E2) + 4 E1 to first order; the bound taken
    adds 4 K eps per unit of N + 1 for the rounding of T and H."""
    N, K = model.N, model.K
    moments = exact_moments(model, 2)
    first = np.eye(K - 1, dtype=np.int64)
    mean = np.array([moments.moment(c) for c in first])
    cross = np.array([[moments.moment(c + e) for e in first] for c in first])
    mean = np.append(mean, 1.0 - mean.sum())
    squares = np.append(cross.diagonal(), 1.0 - 2.0 * mean[:-1].sum() + cross.sum())
    T, H = 1.0 - mean @ mean, 1.0 - squares.sum()
    E1, E2 = (float(moments.errors[moments.exponents.sum(axis=1) == k].sum()) for k in (1, 2))
    slack = (N + 1) * (6.0 * E1 + 3.0 * E2 + 8 * K * _UNIT)
    den = N * (T - H) - T
    s = N * H / den if den > slack else math.inf
    if not (math.isfinite(s) and s > 0.0 and (mean > 0.0).all()):
        return np.full(len(states), 1.0 / len(states))
    return urn_law(DirichletParams(tuple(s * mean)), N).probs


def exact_stationary(model: ChainModel) -> StationaryTable:
    """Exact stationary law of the chain on its full state grid.

    Wright-Fisher rows are multinomial at any K.  Their stationary row
    comes from GMRES on the left product v @ P (`_krylov_stationary`):
    P maps polynomials of degree <= d to degree <= d with eigenvalues
    (N)_k/N^k times products of mutation eigenvalues, which fall off like
    exp(-k^2/2N), so a few tens of products suffice.  GMRES starts from
    the Dirichlet-multinomial with the exact stationary mean and total
    variance (`_dirichlet_start`), the count law of the Dirichlet
    approximation itself: on the benchmark's K=3 tables (N = 62-72) it
    cut the mean steps from 21.5 to 16.6.  The product is factorised
    over types (`_wf_operator`) and never forms P: its tables take about
    8 S (C(N+K-2, K-2) + N+1) bytes, below P's 8 S^2 at every K but K=2;
    the margin shrinks as K grows at fixed S (31% of P at K=6 N=11, 64%
    at K=10 N=5).  Every other kernel's rows are P = G B
    (`_cannings_matrix`) and take one dense solve (`_solve_stationary`).
    GMRES on them needs 68-101 steps at Moran N = 350-2000 with rates
    near 1/60, where it is no faster than the solve, but about 1100 at
    N = 2000 with rates 1/4000 (27 times the solve's time) and S - 1 at
    rates 1/(N(N-1)).  G takes every N (`_group_law`); Cannings rows
    with more than three types are refused: the kernel's cube holds
    (N+1)^(K-1) cells per row.  State counts beyond the state cap of 6e3
    are refused, for every kind, rather than approximated, and Cannings
    rows beyond 2048 states (`_DENSE_STATE_CAP`) before any allocation.
    """
    N, K = model.N, model.K
    check_irreducible(model.mutation)
    if model.kind != KIND_WRIGHT_FISHER and K > 3:
        raise MetricsError(f"exact law for kind {model.kind!r} needs K <= 3, got K={K}")
    S = math.comb(N + K - 1, K - 1)
    if S > _STATE_CAP:
        raise MetricsError(f"{S} states exceeds the state cap of {_STATE_CAP}")
    if model.kind != KIND_WRIGHT_FISHER and S > _DENSE_STATE_CAP:
        raise MetricsError(
            f"{S} states exceeds the dense cap of {_DENSE_STATE_CAP} for kind {model.kind!r}: "
            f"P and its solve would hold {16 * S * S / 1e6:.0f} MB"
        )
    states = _state_grid(N, K)
    if model.kind == KIND_WRIGHT_FISHER:
        x0 = _dirichlet_start(model, states)
        pi, resolution, iterations = _krylov_stationary(_wf_operator(model, states), x0)
        return StationaryTable(states, pi, N, model.kind, resolution, "krylov", iterations)
    pi, resolution = _solve_stationary(_cannings_matrix(model, states))
    return StationaryTable(states, pi, N, model.kind, resolution)


# ---------------------------------------------------------------------------
# exact stationary moments of Wright-Fisher chains


# degree of the exact moments of a Wright-Fisher certification, at K=2 and
# K=3 alike: they give the monomials their exact gaps, every wave its
# enclosure (`ExactMoments.enclose`; at the battery's largest frequency, 3,
# its interpolation remainder is 2.1e-9 at degree 10 and 7.6e-12 at 12) and
# the bump its controls.  At degree 8 the bump's residual set the worst stderr
# of every Theorem 1 run; with 8 type redraws of 1024 draws its mean stderr
# over three seeds fell from 2.9e-4 at degree 10 to 1.6e-4 at 12 (K=3,
# N=150) and its median from 3.3e-4 at degree 8 to 6.3e-5 at 12 (K=2,
# N=150), and its z-scores stay standard normal against the exact tables at
# K=3, N=25 and K=2, N=60.  At K=3 the weights reach |beta|_1 of about 4e8
# at degree 12, and the moments' term sum_c |beta_c| errors_c stays below
# 3e-7 up to N=200 (`exact_moments` bounds each moment's error).
MOMENT_DEGREE = 12

# the unit roundoff of float64
_UNIT = np.finfo(np.float64).eps / 2

# Gauss nodes per stick-breaking coordinate of the bump's least squares:
# exact for every Gram entry up to degree 31 per coordinate, past 2 x 12,
# at a quarter of the 32-node rule's nodes at K=3 and the same stderr
_FIT_NODES = 16

# the battery's waves f(w . z) by kind, each with |f^(k)| <= 1 for every k
_WAVES = {"sin": np.sin, "cos": np.cos}


def _exponents(d, degree):
    """The exponent vectors c in N^d with |c| <= degree, by degree and then
    lexicographically (the battery's monomial order); row 0 is c = 0.  A
    stable sort of the lexicographic grid by |c| keeps that order within
    each degree."""
    cs = _state_grid(degree, d + 1)
    return cs[np.argsort(cs.sum(axis=1), kind="stable")]


def _monomials(w, exps):
    """The (n, m) values w^c of rows w (n, d) for the m exponent rows c,
    gathered from a table of each coordinate's powers."""
    w = np.asarray(w, dtype=np.float64).T
    pw = np.empty((len(w), int(exps.max()) + 1, w.shape[1]))
    pw[:, 0] = 1.0
    for k in range(1, pw.shape[1]):
        np.multiply(pw[:, k - 1], w, out=pw[:, k])
    out = pw[0, exps[:, 0]]
    for j in range(1, len(w)):
        out *= pw[j, exps[:, j]]
    return out.T


def _least_squares(a: DirichletParams, exps):
    """The nodes z of the `_FIT_NODES` Gauss rule of Dir(a) and the map
    that takes h at them (one column per h) to beta_h, the weights on the
    monomials c with the exponent rows exps of h's least-squares fit on
    span{1, c} under the rule's weights wt.  The rule is exact for the
    Gram matrix E [1, c][1, c]^T, so the fit is the L2(Dir(a)) projection
    of h up to the rule's error in E c h.

    The fit never forms the Gram matrix: it solves the design
    sqrt(wt) [1, c], its columns scaled to unit norm, by an SVD least
    squares with singular values below 1e-13 of the largest cut.  The
    design has the square root of the Gram's condition, about 4e9 at
    degree 12 and K=3, so a polynomial of degree <= max|c| gets its own
    coefficients as weights.  A column that underflows at every node
    takes no weight."""
    z, wt = _dirichlet_rule(a, nodes=_FIT_NODES)
    root = np.sqrt(wt)
    design = _monomials(z, np.vstack([np.zeros_like(exps[:1]), exps])) * root[:, None]
    scale = np.linalg.norm(design, axis=0)
    live = np.flatnonzero(scale > 0.0)
    design = design[:, live] / scale[live]

    def fit(values):
        beta = np.zeros((len(scale), values.shape[1]))
        solved = np.linalg.lstsq(design, root[:, None] * values, rcond=1e-13)[0]
        beta[live] = solved / scale[live, None]
        return beta[1:]

    return z, fit


@lru_cache(maxsize=8)
def _chebyshev_rule(degree):
    """The Chebyshev interpolation of degree D >= 1 on [0, 1], as
    matrices: the nodes u_i = (1 + cos theta_i) / 2 of the first kind,
    theta_i = pi (i + 1/2) / (D+1); C, taking values at them to the
    Chebyshev coefficients c_j = (2 - [j = 0]) / (D+1) sum_i
    cos(j theta_i) y_i, as `numpy.polynomial.chebyshev.chebinterpolate`
    takes them; and M, whose column j holds the power coefficients in u
    of T_j(2u - 1), by the recurrence T_(j+1) = 2 (2u - 1) T_j - T_(j-1):
    integers, exact in float64 up to degree 20.  Cached and shared:
    callers must not write into them."""
    n = degree + 1
    theta = np.pi * (np.arange(n) + 0.5) / n
    C = np.cos(np.outer(np.arange(n), theta)) * (2.0 / n)
    C[0] /= 2.0
    M = np.zeros((n, n))
    M[0, 0] = 1.0
    M[:2, 1] = (-1.0, 2.0)
    for j in range(2, n):
        M[1:, j] = 4.0 * M[:-1, j - 1]
        M[:, j] -= 2.0 * M[:, j - 1] + M[:, j - 2]
    u = (1.0 + np.cos(theta)) / 2.0
    for arr in (u, C, M):
        arr.flags.writeable = False
    return u, C, M


def _wave_polynomial(h: TestFunction, degree):
    """For a battery wave h = f(w . z) (f = sin or cos, w >= 0): the power
    coefficients p_k in u = w . z / T, T = max w, of the degree-D
    Chebyshev interpolant of f on [0, T], T, and a bound on |f - p| over
    [0, T].  On the simplex the phase w . z lies in [0, T].

    Since |f^(D+1)| <= 1, the interpolant at the Chebyshev points of the
    first kind is within 2 (T/4)^(D+1) / (D+1)! of f.  The bound adds the
    rounding of p, each part of which moves p on [0, 1] by at most its
    own size: of each Chebyshev coefficient, 10 (D + T + 2) eps (the
    cosines of C to (D pi + 1) eps, f at the rounded nodes to
    (3T + 2) eps, and the node sum), and of the power conversion,
    (D+1) eps |M| |c|."""
    f = _WAVES[h.tag[0]]
    T, D = float(max(h.tag[1])), int(degree)
    u, C, M = _chebyshev_rule(D)
    c = C @ f(T * u)
    eps = np.finfo(np.float64).eps
    rounding = 10.0 * (D + 1) * (D + T + 2.0) * eps
    rounding += (D + 1) * eps * float((np.abs(M) @ np.abs(c)).sum())
    remainder = 2.0 * (T / 4.0) ** (D + 1) / math.factorial(D + 1)
    return M @ c, T, remainder + rounding


@dataclass(frozen=True)
class ExactMoments:
    """Stationary moments E[W^c] of a chain, for every exponent vector c
    over the K-1 free coordinates with 1 <= |c| <= degree.

    exponents lists the c by degree and then lexicographically, values
    the moments in the same order, and errors bounds the float error of
    each value, moment by moment (`exact_moments`).  `projected` adds the
    law whose L2 projection the controls of smooth_gap take."""

    exponents: np.ndarray
    values: np.ndarray
    degree: int
    errors: np.ndarray
    law: DirichletParams | None = None
    projection: tuple | None = field(default=None, repr=False, compare=False)

    def index(self, c) -> int:
        """The row of one exponent vector c in exponents."""
        rows = [tuple(e) for e in self.exponents.tolist()]
        c = tuple(int(v) for v in c)
        if c not in rows:
            raise MetricsError(f"no exact moment for exponents {c}")
        return rows.index(c)

    def moment(self, c) -> float:
        """E[W^c] for one exponent vector c."""
        return float(self.values[self.index(c)])

    def projected(self, a: DirichletParams) -> ExactMoments:
        """These moments with the L2(Dir(a)) projection onto span{1, c}
        built once (`_least_squares`), for the weights of any h."""
        return replace(self, law=a, projection=_least_squares(a, self.exponents))

    def exact(self, h: TestFunction) -> bool:
        """Whether h is a monomial these moments hold, so that smooth_gap
        takes its gap without sampling."""
        return h.tag[0] == "monomial" and sum(h.tag[1]) <= self.degree

    def encloses(self, h: TestFunction) -> bool:
        """Whether h is a battery wave, so that smooth_gap takes its gap
        from `enclose` without sampling."""
        return h.tag[0] in _WAVES

    def enclose(self, h: TestFunction) -> tuple:
        """(E p(W), half-width) for a battery wave h = f(w . z), p its
        interpolant of degree D = degree (`_wave_polynomial`): an interval
        that holds E h(W), with no draw.

        With u = w . z / T, E p(W) = p_0 + sum_c coef_c E[W^c], where by
        the multinomial theorem coef_c = p_|c| |c|! / prod_j c_j!
        prod_j (w_j / T)^c_j.  The half-width adds to the bound on
        |f - p| the moments' error, sum_c |coef_c| errors_c, and the
        rounding of the coefficients and of their sum, 2 (m + 2D + 4) eps
        (|p_0| + |coef| . |E[W^c]|) over the m moments."""
        exps, deg = self.exponents, self.exponents.sum(axis=1)
        if len(h.tag[1]) != exps.shape[1]:
            raise MetricsError(f"{h.tag}: the wave's weights do not match the moments")
        p, T, error = _wave_polynomial(h, self.degree)
        fact = np.array([math.factorial(k) for k in range(self.degree + 1)], dtype=np.float64)
        w = np.asarray(h.tag[1], dtype=np.float64) / T
        coef = p[deg] * (fact[deg] / fact[exps].prod(axis=1)) * np.prod(w**exps, axis=1)
        size = abs(p[0]) + float(np.abs(coef) @ np.abs(self.values))
        rounding = 2.0 * (len(exps) + 2 * self.degree + 4) * np.finfo(np.float64).eps * size
        half_width = error + float(np.abs(coef) @ self.errors) + rounding
        return float(p[0] + coef @ self.values), half_width

    def controls(self, w, h) -> tuple:
        """(beta_h, beta_h . (c(w) - mu), error): the `weights` of h, the
        correction of each row of w, from one product of the centred
        monomials c(w) - mu, and a bound on the error of the corrections'
        mean.  Rows w of shape (R, n, d), R copies of each of n draws,
        give the copies' mean correction of each draw: c(w) is averaged
        over the copies, one copy at a time, before the product.

        The error is sum_c |beta_c| errors_c, what the moments' error can
        shift the mean by, plus the rounding of the corrections: c(w) >= 0
        to (D + d) eps/2 relative per copy, its copies' mean and the
        centring and product over the m monomials to (R + m + 2) eps/2
        more, so (m + D + d + R + 2) eps/2 |beta| . (mean c(w) + |mu|)."""
        beta = self.weights(h)
        w = np.asarray(w, dtype=np.float64)
        copies = w.reshape((-1,) + w.shape[-2:])
        c = _monomials(copies[0], self.exponents)
        for copy in copies[1:]:
            c += _monomials(copy, self.exponents)
        c /= len(copies)
        (m, d), R = self.exponents.shape, len(copies)
        size = np.abs(beta[:, 0]) @ (c.mean(axis=0) + np.abs(self.values))
        rounding = (m + self.degree + d + R + 2) * _UNIT * float(size)
        error = float(np.abs(beta[:, 0]) @ self.errors) + rounding
        return beta[:, 0], ((c - self.values) @ beta)[:, 0], error

    def weights(self, h: TestFunction) -> np.ndarray:
        """beta_h as one column: the weights on these moments' monomials c
        of the projection of h under the projected law, from h at the
        nodes of the projection's rule."""
        if self.projection is None:
            raise MetricsError("project the moments on a law before weighting h")
        z, fit = self.projection
        return fit(np.asarray(h.fn(z), dtype=np.float64)[:, None])


def exact_moments(model: ChainModel, degree: int) -> ExactMoments:
    """Stationary E[W^c], 1 <= |c| <= degree, of a Wright-Fisher chain
    with any mutation matrix P, from one small linear solve.

    Given W = w the next counts are X' ~ Mult(N, q(w)) with q(w) = w P,
    affine in the free coordinates.  The multinomial falling moments
    E prod_j (X'_j)_(i_j) = (N)_|i| q^i and x^c = sum_i S(c, i) (x)_i, with
    S the Stirling numbers of the second kind, give

        E[W'^c | w] = N^-|c| sum_i prod_j S(c_j, i_j) (N)_|i| q(w)^i,

    a polynomial of degree |c| in w: row c of A = T powers, T holding
    the factors N^-|c| prod_j S(c_j, i_j) (N)_|i| and row i of powers the
    coefficients of q(w)^i.  Stationarity is then mu = A mu over the
    monomials of degree <= degree (mu_0 = 1), a system triangular by
    degree, solved in float64 for all degrees at once with the computed
    inverse R of I - A.  Each value carries the a-posteriori bound of
    `_moment_errors` on its distance to the exact moments of the exact
    (rational) mutation matrix."""
    if model.kind != KIND_WRIGHT_FISHER:
        raise MetricsError(f"exact moments are for Wright-Fisher chains, not {model.kind!r}")
    degree = int(degree)
    if degree < 1:
        raise MetricsError("moment degree must be >= 1")
    N, d = model.N, model.K - 1
    exps = _exponents(d, degree)
    m, deg = len(exps), exps.sum(axis=1)
    radix = (degree + 1) ** np.arange(d)
    keys = exps @ radix
    order = np.argsort(keys)

    def index(k):
        """Rows of exps with the exponent keys k."""
        return order[np.searchsorted(keys[order], k)]

    # Q[j] multiplies coefficient vectors by q_j(w) = b_j + sum_k w_k G_kj,
    # with w_K = 1 - sum_k w_k; w_k moves c to c + e_k, never past the
    # degree.  dQ[j] holds the exact distance of each entry of Q[j] to its
    # value under the exact mutation matrix.
    P = model.mutation.array()
    b, G = P[-1, :d], P[:d, :d] - P[-1, :d]
    exact = [[Fraction(v) for v in row[:d]] for row in model.mutation.p]
    db = [abs(Fraction(v) - e) for v, e in zip(b.tolist(), exact[-1])]
    dG = [
        [abs(Fraction(v) - (e - last)) for v, e, last in zip(g, row, exact[-1])]
        for g, row in zip(G.tolist(), exact)
    ]
    Q = b[:, None, None] * np.eye(m)
    dQ = np.array(db, dtype=np.float64)[:, None, None] * np.eye(m)
    low = np.flatnonzero(deg < degree)
    for k in range(d):
        Q[:, index(keys[low] + radix[k]), low] += G[k][:, None]
        dQ[:, index(keys[low] + radix[k]), low] += np.array(dG[k], dtype=np.float64)[:, None]
    # row i of powers: the coefficients of q(w)^c_i, one factor at a time;
    # row i of size: those of the same product of |Q| + dQ, for its error
    first = np.argmax(exps > 0, axis=1)
    parent = index(keys - radix[first])
    carry = np.abs(Q) + dQ
    powers, size = np.zeros((m, m)), np.zeros((m, m))
    powers[0, 0] = size[0, 0] = 1.0
    for i in range(1, m):
        powers[i] = Q[first[i]] @ powers[parent[i]]
        size[i] = carry[first[i]] @ size[parent[i]]
    stirling = np.zeros((degree + 1, degree + 1))
    for c in range(degree + 1):
        stirling[c, : c + 1] = _stirling2_row(c)
    falling = np.concatenate([[1.0], np.cumprod(1.0 - np.arange(degree) / N)])
    T = falling[deg] * float(N) ** np.minimum(deg[None, :] - deg[:, None], 0)
    for j in range(d):
        T *= stirling[np.ix_(exps[:, j], exps[:, j])]
    A = T @ powers
    try:
        inv = np.linalg.inv(np.eye(m - 1) - A[1:, 1:])
    except np.linalg.LinAlgError:
        raise MetricsError("the stationary moment system is singular") from None
    values = inv @ A[1:, 0]
    if not (np.isfinite(values).all() and np.isfinite(inv).all()):
        raise MetricsError("the stationary moment system is singular")
    errors = _moment_errors(
        _power_errors(carry, dQ, size, deg, d),
        _falling_errors(N, degree)[deg] + (d + 3 + d * (stirling.max() >= 2.0**53)) * _UNIT,
        T, powers, A, inv, values, degree,
    )
    return ExactMoments(exps[1:], values, degree, errors)


def _power_errors(carry, dQ, size, deg, d):
    """A bound on |powers - the exact coefficients of q(w)^c|, row by row.

    carry = |Q| + dQ bounds both Q and its exact value, and kappa =
    max dQ / carry + (d + 1) eps/2 is the relative error of one factor
    of Q and of a product by it (each entry sums at most d + 1 products).
    Row i, of degree k, is Q[j] times its parent row, so by induction it
    is off by at most rho (1 + 2 rho) size_i with rho = k kappa, size_i =
    carry[j] size_parent the coefficients of prod_j (|b_j| + db_j +
    sum_k (|G_kj| + dG_kj) w_k)^(c_j)."""
    live = carry > 0
    kappa = float((dQ[live] / carry[live]).max(initial=0.0)) + (d + 1) * _UNIT
    rho = deg * kappa
    return (rho * (1.0 + 2.0 * rho))[:, None] * size


def _falling_errors(N, degree):
    """A relative bound, for k = 0..degree, on the rounding of the float
    (N)_k / N^k that `exact_moments` forms as a product of the factors
    1 - i/N: each factor is off by eps/2 (1 + (i/N) / |1 - i/N|) of itself
    (exact at i = N) and each product by eps/2 more."""
    i = np.arange(degree)
    x = i / N
    with np.errstate(divide="ignore"):
        rel = np.where(i == N, 0.0, _UNIT * (2.0 + x / np.abs(1.0 - x)))
    return np.concatenate([[0.0], np.cumsum(rel)])


def _moment_errors(power_err, rel_T, T, powers, A, inv, values, D):
    """The a-posteriori bound on |values - mu| moment by moment, mu the
    exact stationary moments of the exact mutation matrix:

        |mu_hat - mu| <= |R| e + alpha / (1 - alpha) max(|R| e),

    R the computed inverse and alpha >= |I - R (I - A)|_inf for the exact
    A, so that (I - A)^-1 = sum_k (I - R (I - A))^k R.  e bounds
    |(I - A) mu_hat - b| over the unknowns and states each float error:

    - the residual r = (I - A_hat) mu_hat - b_hat, summed in long double
      (unit roundoff u_L, which is eps/2 where long double is float64),
      and its rounding, (m + 1) u_L (|mu_hat| + |A_hat| |mu_hat| + |b_hat|);
    - |A_hat - A| |[1, mu_hat]|, the building of A = T powers from the
      float mutation matrix: |A_hat - A| <= |T| ((m eps/2 + rel_T)
      |powers| + (1 + rel_T) power_err), with the product's rounding,
      T's relative rounding rel_T by column (the falling factorial, the
      power of N to one ulp, d + 1 products, and d Stirling numbers once
      they pass 2^53, from degree 23) and power_err of `_power_errors`.

    alpha is |I - R (I - A_hat)|_inf as computed, plus that product's
    rounding (m + 2) eps/2 |R| (I + |A_hat|) and |R| |A_hat - A|.  Every
    nonnegative term is itself summed in floats, within a relative
    (1 + m eps)^(D + 4) over the recursion's D steps and the products
    after them; the factor 1 + 2 m (D + 4) eps covers that and the
    dropped second-order terms."""
    m = len(T)
    absT = np.abs(T)
    dA = absT @ ((m * _UNIT + rel_T)[:, None] * np.abs(powers) + (1.0 + rel_T)[:, None] * power_err)
    dA = dA[1:]
    Auu, b = A[1:, 1:], A[1:, 0]
    absA, absv, absR = np.abs(Auu), np.abs(values), np.abs(inv)
    wide = np.longdouble
    resid = values.astype(wide) - Auu.astype(wide) @ values.astype(wide) - b.astype(wide)
    e = np.abs(resid).astype(np.float64)
    e += (m + 1) * (np.finfo(wide).eps / 2) * (absv + absA @ absv + np.abs(b))
    e += dA[:, 0] + dA[:, 1:] @ absv
    H = np.eye(m - 1) - inv @ (np.eye(m - 1) - Auu)
    alpha = float(np.abs(H).sum(axis=1).max())
    alpha += float(((m + 2) * _UNIT * absR @ (1.0 + absA.sum(axis=1))).max())
    alpha += float((absR @ dA[:, 1:].sum(axis=1)).max())
    grow = 1.0 + 2 * m * (D + 4) * np.finfo(np.float64).eps
    alpha *= grow
    if not alpha < 1.0:
        raise MetricsError("the stationary moment system is too ill-conditioned to bound")
    v = absR @ e
    return (v + alpha / (1.0 - alpha) * float(v.max())) * grow


def moment_z_max(sample, moments: ExactMoments) -> float:
    """Largest |z| of the sample means of W^c, 1 <= |c| <= 3 (the
    battery's monomials), against the exact stationary moments, in
    smooth_gap's stderr (iid rows or batch means over chains) combined
    with each moment's error.  A check of the sampler: exact draws keep
    it near the largest of that many standard normals."""
    rows, replicates = _rows(sample, moments.exponents.shape[1], None)
    keep = moments.exponents.sum(axis=1) <= 3
    z = 0.0
    cols = _monomials(rows, moments.exponents[keep]).T
    for col, mu, err in zip(cols, moments.values[keep], moments.errors[keep]):
        est, se = _mean_se(col, replicates)
        z = max(z, abs(est - mu) / math.hypot(se, err))
    return z
