"""Distance estimators, the certified test-function battery, and exact
stationary tables for small chains.

The battery ships closed-form derivative seminorms per function family;
`_validate_battery` re-derives them numerically by dense finite-difference
probing, and the test suite runs it over every shipped battery, so a
stale constant cannot survive a refactor.  Distances come in three
strengths: smooth-function gaps (the quantity the bounds control), a
Kolmogorov distance for two types, and a convex-set probe for three
types that only ever reports a lower bound.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as _poly

from .chains import ChainModel, StationaryRun, check_irreducible
from .offspring import ENUMERATION_LIMIT, KIND_MORAN, KIND_WRIGHT_FISHER, enumerate_law
from .simplex import DirichletParams, _falling, _rising, as_generator, dirichlet_sample
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


def _probe_points(K, step, margin):
    """Lattice over the open simplex plus dense axis-parallel lines, so
    both interior extrema and boundary-attained ones are seen."""
    if K == 2:
        return np.arange(margin, 1.0 - margin, step / 16)[:, None]
    pts = [
        (x1, x2)
        for x1 in np.arange(margin, 1.0 - margin, step)
        for x2 in np.arange(margin, 1.0 - margin - x1, step)
    ]
    dense = np.arange(margin, 1.0 - margin, step / 8)
    for other in (margin, 1.0 / 3.0):
        for v in dense:
            if v + other <= 1.0 - margin:
                pts.append((v, other))
                pts.append((other, v))
    return np.array(pts)


# centered stencils per derivative order, as offset -> coefficient / h^k
_STENCILS = {
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
}


def _fd_partial_max(fn, pts, orders, h):
    """Max abs of one mixed partial over pts by tensor-product stencils."""
    d = pts.shape[1]
    terms = [(np.zeros(d), 1.0)]
    for axis, k in orders.items():
        new = []
        for off, coef in _STENCILS[k].items():
            for base, c in terms:
                v = base.copy()
                v[axis] += off
                new.append((v, c * coef))
        terms = new
    total = np.zeros(len(pts))
    for off, coef in terms:
        total += coef * np.asarray(fn(pts + off * h), dtype=np.float64)
    return float(np.max(np.abs(total))) / h ** sum(orders.values())


def _validate_battery(fns, K):
    """Dense finite-difference probing of every certified constant.

    Each seminorm must cover the probed maximum (validity) and the probe
    must reach at least 95% of it wherever the certified value is
    nonzero (tightness); failures raise.  The constants never change at
    run time, so the probe runs in the test suite, not in `make_battery`.

    The step is small because the bump's third derivative jumps at its
    support edge and a wide stencil would average the jump away.
    """
    h = 5e-4
    pts = _probe_points(K, 1.0 / 120.0, 0.005)
    d = K - 1
    for f in fns:
        vals = np.asarray(f.fn(pts), dtype=np.float64)
        lo, hi = f.value_range
        if vals.min() < lo - 1e-9 or vals.max() > hi + 1e-9:
            raise MetricsError(f"{f.tag}: probed values escape value_range")
        if vals.max() > f.sup_norm + 1e-9:
            raise MetricsError(f"{f.tag}: probed sup exceeds certified sup_norm")
        for cert, combos in (
            (f.h1, [{i: 1} for i in range(d)]),
            (
                f.h2,
                [
                    {i: c.count(i) for i in set(c)}
                    for c in itertools.combinations_with_replacement(range(d), 2)
                ],
            ),
            (
                f.h21,
                [
                    {i: c.count(i) for i in set(c)}
                    for c in itertools.combinations_with_replacement(range(d), 3)
                ],
            ),
        ):
            probed = max(_fd_partial_max(f.fn, pts, orders, h) for orders in combos)
            if probed > cert * 1.05 + 1e-5:
                raise MetricsError(
                    f"{f.tag}: probed derivative {probed:.6g} exceeds "
                    f"certified {cert:.6g}"
                )
            if cert > 0 and probed < cert * 0.95 - 1e-5:
                raise MetricsError(
                    f"{f.tag}: certified {cert:.6g} is loose, probe only "
                    f"reached {probed:.6g}"
                )


def make_battery(K: int) -> tuple:
    """The standard test functions for a K-type model.

    Monomials up to total degree three, cosine and sine waves at small
    and moderate frequencies, and one compactly supported bump.  Means
    are not attached; callers do that per target law.
    """
    if K == 2:
        fns = [_monomial((c,)) for c in (1, 2, 3)]
        fns += [_trig(kind, (w,)) for kind in ("cos", "sin") for w in (1.0, 3.0)]
        fns.append(_bump((0.5,), 0.25))
    elif K == 3:
        cs = sorted(
            (
                c
                for c in itertools.product(range(4), repeat=2)
                if 1 <= sum(c) <= 3
            ),
            key=lambda c: (sum(c), c),
        )
        fns = [_monomial(c) for c in cs]
        ws = [(1, 0), (0, 1), (2, 1), (1, 2), (3, 0), (0, 3)]
        fns += [_trig(kind, w) for kind in ("cos", "sin") for w in ws]
        fns.append(_bump((1.0 / 3.0, 1.0 / 3.0), 0.25))
    else:
        raise MetricsError("battery is shipped for K in {2, 3}")
    return tuple(fns)


# ---------------------------------------------------------------------------
# smooth-function gaps


@dataclass(frozen=True)
class GapEstimate:
    """|E h(W) - E h(Z)| with its Monte-Carlo error and the bound it is
    held against; passed means the gap minus four stderr clears it."""

    h_tag: tuple
    gap: float
    stderr: float
    bound: float
    passed: bool


def smooth_gap(
    sample, a: DirichletParams, h: TestFunction, bound, replicates=None
) -> GapEstimate:
    """Estimate |E h(W) - E h(Z)| from a stationary sample or exact table.

    The sample may be a StationaryRun, a raw (n, K-1) array, or a
    StationaryTable; a table contributes no sampling noise, so the
    stderr is then just the one attached to E h(Z).  Sample rows are
    independent unless `replicates` says that row i is a round of chain
    i % replicates: rounds of one chain are correlated, so the stderr is
    then taken over the chains' batch means.  A StationaryRun supplies
    its own meta["replicates"] when `replicates` is None.
    """
    if h.mean is None:
        raise SteinError(f"{h.tag}: attach_mean before taking gaps")
    if isinstance(sample, StationaryTable):
        if sample.counts.shape[1] != a.dim - 1:
            raise MetricsError("table dimension does not match the law")
        vals = np.asarray(h.fn(sample.w), dtype=np.float64)
        est = float(sample.probs @ vals)
        se = h.mean_se
        # sub-resolution gaps are pure solver roundoff; report them as
        # zero so that exactly-zero bounds stay checkable
        if abs(est - h.mean) <= sample.resolution * max(1.0, h.sup_norm):
            est = h.mean
    else:
        rows = sample
        if isinstance(sample, StationaryRun):
            rows = sample.samples
            if replicates is None:
                # loaded runs carry their meta values as strings
                replicates = int(sample.meta["replicates"])
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != a.dim - 1:
            raise MetricsError("sample must be (n, K-1) for the law's K")
        vals = np.asarray(h.fn(rows), dtype=np.float64)
        est, n = float(vals.mean()), len(vals)
        if replicates is None or replicates >= n:
            se = float(vals.std(ddof=1)) / math.sqrt(n)
        elif replicates < 2:
            raise MetricsError("correlated rounds need at least two replicates")
        else:
            dev = np.bincount(np.arange(n) % replicates, weights=vals - est)
            se = math.sqrt(replicates / (replicates - 1) * float(dev @ dev)) / n
        se = math.hypot(se, h.mean_se)
    gap = abs(est - h.mean)
    bound = float(bound)
    return GapEstimate(h.tag, gap, se, bound, gap - 4.0 * se <= bound)


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


def _bump_coeffs(center, rho):
    """(1 - ((x-center)/rho)^2)^3 as ascending power coefficients."""
    u = np.array([-center / rho, 1.0 / rho])
    q = _poly.polysub(np.array([1.0]), _poly.polymul(u, u))
    return _poly.polymul(_poly.polymul(q, q), q)


def _trunc_beta_moments(a1, a2, lo, hi, kmax):
    """E[x^k; lo <= x <= hi] under Beta(a1, a2) for k = 0..kmax, shape
    (kmax + 1,) + lo.shape.  The last axis of lo/hi holds the lanes of one
    incomplete-beta evaluation and any leading axes index separate ones;
    all of them go through one _reg_inc_betas call."""
    lo = np.clip(np.asarray(lo, dtype=np.float64), 0.0, 1.0)
    hi = np.clip(np.asarray(hi, dtype=np.float64), 0.0, 1.0)
    hi = np.maximum(hi, lo)
    ends = np.stack([hi, lo]).reshape(2, -1, lo.shape[-1] if lo.ndim else 1)
    rows = np.broadcast_to(ends, (kmax + 1,) + ends.shape).reshape(-1, ends.shape[-1])
    ak = np.repeat(a1 + np.arange(kmax + 1), ends.shape[0] * ends.shape[1])
    cdf = _reg_inc_betas(rows, ak, np.full(len(ak), a2)).reshape((kmax + 1,) + ends.shape)
    scale = [float(_rising(a1, k)) / float(_rising(a1 + a2, k)) for k in range(kmax + 1)]
    out = np.array(scale)[:, None, None] * (cdf[:, 0] - cdf[:, 1])
    return out.reshape((kmax + 1,) + lo.shape)


def _bump_mean_k2(a: DirichletParams, center, rho) -> float:
    c = _bump_coeffs(center, rho)
    m = _trunc_beta_moments(
        float(a.a[0]), float(a.a[1]), center - rho, center + rho, len(c) - 1
    )
    return float(c @ m)


def _bump_mean_k3(a: DirichletParams, centers, rho) -> float:
    """E of the separable bump under Dir(a) by exact conditioning.

    Given x1, the second coordinate is (1-x1) times a Beta(a2, a3)
    variable, so the inner factor reduces to truncated beta moments;
    the outer integral is Gauss-Legendre, split at the points where the
    moving truncation window crosses the unit interval."""
    a1, a2, a3 = (float(v) for v in a.a)
    c1, c2 = centers
    co1 = _bump_coeffs(c1, rho)
    co2 = _bump_coeffs(c2, rho)
    lo1, hi1 = max(c1 - rho, 0.0), min(c1 + rho, 1.0)
    lo2, hi2 = c2 - rho, c2 + rho
    cuts = sorted(
        {lo1, hi1} | {v for v in (1.0 - hi2, 1.0 - lo2) if lo1 < v < hi1}
    )
    lbeta = math.lgamma(a1) + math.lgamma(a2 + a3) - math.lgamma(a1 + a2 + a3)
    nodes, weights = np.polynomial.legendre.leggauss(120)
    segs = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        x1 = 0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
        segs.append((x1, 0.5 * (hi - lo) * weights, 1.0 - x1))
    # every segment's truncated moments in one batch: (k, segment, node)
    m = _trunc_beta_moments(
        a2,
        a3,
        np.array([lo2 / rest for _, _, rest in segs]),
        np.array([hi2 / rest for _, _, rest in segs]),
        len(co2) - 1,
    )
    total = 0.0
    for i, (x1, w, rest) in enumerate(segs):
        dens = np.exp((a1 - 1.0) * np.log(x1) + (a2 + a3 - 1.0) * np.log(rest) - lbeta)
        inner = np.zeros_like(x1)
        for k, ck in enumerate(co2):
            inner += ck * rest**k * m[k, i]
        b1 = _poly.polyval(x1, co1)
        total += float(np.sum(w * b1 * dens * inner))
    return total


def attach_exact_means(fns, a: DirichletParams) -> tuple:
    """Attach E h(Z) to a battery with no Monte-Carlo anywhere.

    Monomials and waves already have deterministic means; the bump gets
    truncated-beta moments (two types) or conditioning plus fixed
    quadrature (three types), accurate well past the resolution of any
    float stationary table."""
    out = []
    for h in fns:
        kind = h.tag[0]
        if kind in ("monomial", "cos", "sin"):
            out.append(attach_mean(h, a))
        elif kind == "bump":
            centers, rho = h.tag[1], h.tag[2]
            if a.dim == 2:
                mean = _bump_mean_k2(a, centers[0], rho)
            elif a.dim == 3:
                mean = _bump_mean_k3(a, centers, rho)
            else:
                raise MetricsError(f"no exact bump mean for K={a.dim}")
            out.append(replace(h, mean=mean, mean_se=0.0))
        else:
            raise MetricsError(f"no exact mean rule for {h.tag}")
    return tuple(out)


# ---------------------------------------------------------------------------
# regularized incomplete beta, hand-rolled so the Kolmogorov distance has
# no opaque dependency in the measurement path


def _betacf(a, b, x, iterations=400):
    """Continued fraction for the incomplete beta, modified Lentz scheme.

    x is (G, L): G separate evaluations of L lanes each, with parameters
    a[g], b[g].  Every eight iterations each row whose lanes' step factors
    are all within 1e-15 of one stops and keeps its value, so a row ends
    as it would alone."""
    x = np.asarray(x, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)[:, None]
    b = np.asarray(b, dtype=np.float64)[:, None]
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < tiny, tiny, d)
    d = 1.0 / d
    h = d.copy()
    out = np.empty_like(x)
    rows = np.arange(len(x))
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
        if m % 8 == 0:
            done = np.abs(step - 1.0).max(axis=1) < 1e-15
            if done.any():
                out[rows[done]] = h[done]
                keep = ~done
                rows = rows[keep]
                if not rows.size:
                    return out
                a, b, qab, qap, qam, x, c, d, h = (
                    v[keep] for v in (a, b, qab, qap, qam, x, c, d, h)
                )
    out[rows] = h
    return out


def _reg_inc_betas(x, a, b):
    """I_x(a[g], b[g]) for each row g of x (G, L) in [0, 1], a, b > 0,
    through one _betacf call."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.any(a <= 0) or np.any(b <= 0):
        raise MetricsError("beta parameters must be positive")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0) or np.any(x > 1):
        raise MetricsError("beta argument outside [0, 1]")
    lead = np.array(
        [math.lgamma(p + q) - math.lgamma(p) - math.lgamma(q) for p, q in zip(a, b)]
    )[:, None]
    # rows 0..G-1 of the continued fraction serve x below the switch, the
    # rest 1 - x with the parameters swapped
    G, cf_a, cf_b = len(x), np.concatenate([a, b]), np.concatenate([b, a])
    a, b = a[:, None], b[:, None]
    switch = (a + 1.0) / (a + b + 2.0)
    direct = x < switch
    xs = np.where(direct, x, switch / 2)
    xr = np.where(direct, 1.0 - switch / 2, 1.0 - x)
    cf = _betacf(cf_a, cf_b, np.concatenate([xs, xr]))
    with np.errstate(divide="ignore"):
        bt = np.exp(lead + a * np.log(xs) + b * np.log1p(-xs))
    lo = np.where(xs > 0, bt * cf[:G] / a, 0.0)
    with np.errstate(divide="ignore"):
        bt = np.exp(lead + b * np.log(xr) + a * np.log1p(-xr))
    hi = np.where(xr > 0, 1.0 - bt * cf[G:] / b, 1.0)
    out = np.where(direct, lo, hi)
    out = np.where(x == 0.0, 0.0, out)
    out = np.where(x == 1.0, 1.0, out)
    return out


def _reg_inc_beta(x, a, b):
    """I_x(a, b) for scalar a, b > 0 and array x in [0, 1]."""
    x = np.asarray(x, dtype=np.float64)
    return _reg_inc_betas(x.reshape(1, -1), [float(a)], [float(b)]).reshape(x.shape)


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
    interval_bound: float


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
        return K2Distance(dist, 2.0 * dist)
    rows = sample.samples if isinstance(sample, StationaryRun) else sample
    xs = np.sort(np.asarray(rows, dtype=np.float64).reshape(len(rows), -1)[:, 0])
    n = len(xs)
    theo = _reg_inc_beta(xs, a1, a2)
    i = np.arange(1, n + 1, dtype=np.float64)
    dist = float(max(np.max(i / n - theo), np.max(theo - (i - 1.0) / n)))
    return K2Distance(dist, 2.0 * dist)


# ---------------------------------------------------------------------------
# convex-set probing for three types


@dataclass(frozen=True)
class ProbeEstimate:
    """Largest |P(W in C) - P(Z in C)| seen over probed convex sets.

    A probe only ever certifies from below: the true convex-set
    distance is at least value up to the recorded noise."""

    value: float
    stderr: float
    n_probes: int
    lower_bound: bool = True


_REFERENCE_CACHE: dict = {}


def dirichlet_reference(a: DirichletParams, rng, size: int = 10**7) -> np.ndarray:
    """A large cached cloud of Dir(a) free coordinates, float32.

    Keyed by the parameters and size; the first build for a key wins,
    so pass the same stream when reproducibility across runs matters.
    """
    key = (a.a, size)
    if key not in _REFERENCE_CACHE:
        g = as_generator(rng)
        out = np.empty((size, a.dim - 1), dtype=np.float32)
        done = 0
        while done < size:
            b = min(10**6, size - done)
            out[done : done + b] = dirichlet_sample(a, g, size=b)
            done += b
        _REFERENCE_CACHE[key] = out
    return _REFERENCE_CACHE[key]


def convex_probe_k3(
    sample,
    a: DirichletParams,
    n_probes: int,
    rng,
    reference_size: int = 10**7,
) -> ProbeEstimate:
    """Probe random half-planes and axis boxes for the largest
    probability discrepancy against a cached reference cloud.

    The first probes are the fixed mean half-planes x_i <= a_i/s; the
    rest alternate random cuts through reference mass with random
    boxes.  The result is a lower bound on the convex-set distance.
    """
    if a.dim != 3:
        raise MetricsError("convex probing is for three-type laws")
    if n_probes < 1:
        raise MetricsError("need at least one probe")
    rows = sample.samples if isinstance(sample, StationaryRun) else sample
    rows = np.asarray(rows, dtype=np.float32)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise MetricsError("sample must be (n, 2)")
    g = as_generator(rng)
    ref = dirichlet_reference(a, g, size=reference_size)
    n, m = len(rows), len(ref)
    s = float(a.s)
    means = [float(v) / s for v in a.a[:2]]

    def halfplane(u, c):
        return rows @ u <= c, ref @ u <= c

    best = (-1.0, 0.0)
    probes = 0
    while probes < n_probes:
        if probes == 0:
            inds = halfplane(np.array([1.0, 0.0], dtype=np.float32), means[0])
        elif probes == 1:
            inds = halfplane(np.array([0.0, 1.0], dtype=np.float32), means[1])
        elif probes % 2 == 0:
            th = g.uniform(0.0, 2.0 * math.pi)
            u = np.array([math.cos(th), math.sin(th)], dtype=np.float32)
            c = float(ref[g.integers(m)] @ u)
            inds = halfplane(u, c)
        else:
            lo1, hi1 = sorted(g.random(2))
            lo2, hi2 = sorted(g.random(2))

            def cut(z):
                return (
                    (z[:, 0] >= lo1)
                    & (z[:, 0] <= hi1)
                    & (z[:, 1] >= lo2)
                    & (z[:, 1] <= hi2)
                )

            inds = cut(rows), cut(ref)
        p_emp = float(np.mean(inds[0]))
        p_ref = float(np.mean(inds[1]))
        diff = abs(p_emp - p_ref)
        if diff > best[0]:
            se = math.hypot(
                math.sqrt(max(p_emp * (1 - p_emp), 0.0) / n),
                math.sqrt(max(p_ref * (1 - p_ref), 0.0) / m),
            )
            best = (diff, se)
        probes += 1
    return ProbeEstimate(best[0], best[1], n_probes)


# ---------------------------------------------------------------------------
# exact stationary laws for small models


@dataclass(frozen=True)
class StationaryTable:
    """Exact stationary law of an allele-count chain on its state grid.

    resolution is the float linear-algebra noise floor of the solve;
    expectation gaps at or below it are indistinguishable from zero."""

    counts: np.ndarray
    probs: np.ndarray
    N: int
    kind: str
    resolution: float = 1e-12

    @property
    def w(self) -> np.ndarray:
        return self.counts / self.N

    def expect(self, fn) -> float:
        return float(self.probs @ np.asarray(fn(self.w), dtype=np.float64))


_DENSE_CAP = 6_000


def _state_grid(N, K):
    if K == 2:
        return np.arange(N + 1, dtype=np.int64)[:, None]
    out = [
        t
        for t in itertools.product(range(N + 1), repeat=K - 1)
        if sum(t) <= N
    ]
    return np.array(out, dtype=np.int64)


def _log_factorials(n):
    """log(k!) for k = 0..n, one table per transition matrix."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def _binom_pmf(m, p, length, lgfact):
    """pmf of Bin(m, p) padded to the given length; lgfact covers m."""
    y = np.arange(m + 1, dtype=np.float64)
    if p <= 0.0:
        row = np.where(y == 0, 1.0, 0.0)
    elif p >= 1.0:
        row = np.where(y == m, 1.0, 0.0)
    else:
        lg = (
            lgfact[m]
            - lgfact[: m + 1]
            - lgfact[m::-1]
            + y * math.log(p)
            + (m - y) * math.log1p(-p)
        )
        row = np.exp(lg)
    out = np.zeros(length)
    out[: m + 1] = row
    return out


def _wf_matrix(model: ChainModel, states):
    N, K = model.N, model.K
    Pm = model.mutation.array()
    full = np.column_stack([states, N - states.sum(axis=1)]).astype(np.float64)
    q = (full / N) @ Pm
    logq = np.where(q > 0.0, np.log(np.where(q > 0.0, q, 1.0)), -1e30)
    lgfact = _log_factorials(N)
    coef = lgfact[N] - lgfact[full.astype(np.int64)].sum(axis=1)
    L = logq @ full.T
    L += coef[None, :]
    P = np.exp(L, out=L)
    P /= P.sum(axis=1, keepdims=True)
    return P


def _distinct_rows(v):
    """Distinct arrangements of the multiset v, all equally likely under
    a uniform permutation."""
    return np.array(sorted(set(itertools.permutations(v))), dtype=np.int64)


def _mutation_conv(mvec, Pm, N, K, lgfact):
    """pmf over child free counts after every child of every type group
    mutates independently: the convolution of one multinomial per group."""
    shape = (N + 1,) * (K - 1)
    grid = np.zeros(shape)
    grid[(0,) * (K - 1)] = 1.0
    for t, mt in enumerate(mvec):
        if mt == 0:
            continue
        if K == 2:
            part = _binom_pmf(int(mt), Pm[t, 0], N + 1, lgfact)
            grid = np.convolve(grid, part)[: N + 1]
            continue
        part = np.zeros(shape)
        p1, p2 = Pm[t, 0], Pm[t, 1]
        p3 = max(1.0 - p1 - p2, 0.0)
        for y1 in range(int(mt) + 1):
            for y2 in range(int(mt) - y1 + 1):
                y3 = int(mt) - y1 - y2
                lw = lgfact[mt] - lgfact[y1] - lgfact[y2] - lgfact[y3]
                val = math.exp(lw) * p1**y1 * p2**y2 * p3**y3
                part[y1, y2] = val
        out = np.zeros(shape)
        nz = np.argwhere(part > 0.0)
        for idx in nz:
            j1, j2 = int(idx[0]), int(idx[1])
            out[j1:, j2:] += part[j1, j2] * grid[: shape[0] - j1, : shape[1] - j2]
        grid = out
    return grid


def _moran_groups(x):
    """Group totals of one Moran generation from the type counts x: a
    uniform ordered pair of distinct parents (reproducer of type a, dier
    of type b) gives M = x + e_a - e_b with probability
    x_a (x_b - [a = b]) / (N (N - 1)), so M = x whenever a = b."""
    N, K = int(x.sum()), len(x)
    step = np.eye(K, dtype=np.int64)
    m = x + (step[:, None, :] - step[None, :, :]).reshape(K * K, K)
    w = (np.outer(x, x) - np.diag(x)).ravel() / (N * (N - 1))
    live = w > 0.0
    return m[live], w[live]


def _enumerated_groups(offspring):
    """Group totals by enumeration: every distinct slot arrangement of
    every offspring multiset, with its weight, read off at the group
    edges of x."""
    cums, weights = [], []
    for v, p in enumerate_law(offspring):
        arr = _distinct_rows(v)
        cums.append(np.column_stack([np.zeros(len(arr), dtype=np.int64), arr.cumsum(axis=1)]))
        weights.append(np.full(len(arr), float(p) / len(arr)))
    cum = np.concatenate(cums)
    weight = np.concatenate(weights)

    def groups(x):
        edges = np.concatenate([[0], np.cumsum(x)])
        return cum[:, edges[1:]] - cum[:, edges[:-1]], weight

    return groups


def _cannings_matrix(model: ChainModel, states):
    """Rows of a Cannings chain: the law of the type-group offspring totals
    M given x, then per-child mutation of each group (P = A B)."""
    N, K = model.N, model.K
    Pm = model.mutation.array()
    if model.kind == KIND_MORAN:
        groups = _moran_groups
    else:
        groups = _enumerated_groups(model.offspring)
    # group-count rows are keyed as mixed-radix integers in base N + 1
    radix = (N + 1) ** np.arange(K, dtype=np.int64)
    S = len(states)
    P = np.zeros((S, S))
    full = np.column_stack([states, N - states.sum(axis=1)])
    lgfact = _log_factorials(N)
    conv_cache: dict = {}
    for xi in range(S):
        m, weight = groups(full[xi])
        codes, inverse = np.unique(m @ radix, return_inverse=True)
        mweights = np.bincount(inverse.ravel(), weights=weight)
        row = np.zeros(S)
        for code, w in zip(codes.tolist(), mweights):
            if code not in conv_cache:
                mvec = [code // (N + 1) ** t % (N + 1) for t in range(K)]
                grid = _mutation_conv(mvec, Pm, N, K, lgfact)
                conv_cache[code] = grid[tuple(states.T)]
            row += w * conv_cache[code]
        P[xi] = row
    P /= P.sum(axis=1, keepdims=True)
    return P


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
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    resid = float(np.max(np.abs(pi @ P - pi)))
    return pi, max(1e-12, 100.0 * S * resid)


def exact_stationary(model: ChainModel) -> StationaryTable:
    """Exact stationary law by dense linear algebra on the state grid.

    Wright-Fisher rows are multinomial at any size that fits in memory.
    Every other kernel's rows mix the mutation of the type-group offspring
    totals over their law, which is closed form for Moran (one reproducer
    and one dier) and comes from full offspring-law enumeration otherwise.
    Moran with two types is served at any N; every other case is gated at
    N <= 8.  State counts beyond the dense-matrix cap of 6e3 are
    refused rather than approximated.
    """
    N, K = model.N, model.K
    check_irreducible(model.mutation)
    S = math.comb(N + K - 1, K - 1)
    if S > _DENSE_CAP:
        raise MetricsError(f"{S} states exceeds the dense-matrix cap")
    states = _state_grid(N, K)
    if model.kind == KIND_WRIGHT_FISHER:
        P = _wf_matrix(model, states)
    elif N <= ENUMERATION_LIMIT or (model.kind == KIND_MORAN and K == 2):
        P = _cannings_matrix(model, states)
    else:
        raise MetricsError(
            f"exact law for kind {model.kind!r} with K={K} needs N <= "
            f"{ENUMERATION_LIMIT}"
        )
    pi, resolution = _solve_stationary(P)
    return StationaryTable(states, pi, N, model.kind, resolution)
