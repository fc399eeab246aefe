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
from dataclasses import dataclass, field, replace

import numpy as np

from .chains import ChainModel, StationaryRun, check_irreducible
from .offspring import (
    KIND_DIRICHLET_MULTINOMIAL,
    KIND_EXPLICIT,
    KIND_MORAN,
    KIND_WRIGHT_FISHER,
    enumerate_law,
)
from .simplex import (
    DirichletParams,
    _dirichlet_moments,
    _dirichlet_rule,
    _falling,
    _stirling2_row,
    as_generator,
    dirichlet_sample,
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
    """|E h(W) - E h(Z)| with its Monte-Carlo error and the bound it is
    held against; passed means the gap minus four stderr clears it."""

    h_tag: tuple
    gap: float
    stderr: float
    bound: float
    passed: bool


def _rows(sample, d, replicates):
    """The (n, d) rows of a StationaryRun or raw array, and the replicate
    count: a StationaryRun supplies its own meta["replicates"] when
    `replicates` is None."""
    rows = sample
    if isinstance(sample, StationaryRun):
        rows = sample.samples
        if replicates is None:
            # loaded runs carry their meta values as strings
            replicates = int(sample.meta["replicates"])
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != d:
        raise MetricsError("sample must be (n, K-1) for the law's K")
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
    controls=None,
) -> GapEstimate:
    """Estimate |E h(W) - E h(Z)| from a stationary sample or exact table.

    The sample may be a StationaryRun, a raw (n, K-1) array, or a
    StationaryTable; a table contributes no sampling noise, so the
    stderr is then just the one attached to E h(Z).  Sample rows are
    independent unless `replicates` says that row i is a round of chain
    i % replicates: rounds of one chain are correlated, so the stderr is
    then taken over the chains' batch means.  A StationaryRun supplies
    its own meta["replicates"] when `replicates` is None.

    `moments`, the chain's exact stationary moments (`exact_moments`),
    make a sample's monomial of degree <= moments.degree exact like a
    table's, and every other h is sampled as h(W) - beta_h . (c(W) - mu):
    c are the monomials of degree 1..moments.degree, mu = E c(W) exact
    and beta_h the L2(Dir(a)) projection of h on them
    (`ExactMoments.weights`), which uses neither the sample nor an rng;
    the moments must be `projected` on a.  The mean is unchanged and the
    variance is what the projection leaves; the stderr adds |beta_h|_1
    times the moments' resolution.  `controls`, the sample's c(W) as
    `moments.monomials` gives them, spares a caller that takes many gaps
    of one sample their recomputation for every h.
    """
    if h.mean is None:
        raise SteinError(f"{h.tag}: attach_mean before taking gaps")
    exact = None
    if isinstance(sample, StationaryTable):
        if sample.counts.shape[1] != a.dim - 1:
            raise MetricsError("table dimension does not match the law")
        exact = sample.expect(h.fn), sample.resolution
    elif moments is not None and h.tag[0] == "monomial" and sum(h.tag[1]) <= moments.degree:
        exact = moments.moment(h.tag[1]), moments.resolution
    if exact is not None:
        est, resolution = exact
        se = h.mean_se
        # sub-resolution gaps are pure solver roundoff; report them as
        # zero so that exactly-zero bounds stay checkable
        if abs(est - h.mean) <= resolution * max(1.0, h.sup_norm):
            est = h.mean
    else:
        rows, replicates = _rows(sample, a.dim - 1, replicates)
        vals = np.asarray(h.fn(rows), dtype=np.float64)
        extra = h.mean_se
        if moments is not None:
            if moments.law != a:
                raise MetricsError("the moments are not projected on this law")
            beta = moments.weights(h)
            if controls is None:
                controls = moments.monomials(rows)
            vals = vals - (controls - moments.values) @ beta
            extra = math.hypot(extra, float(np.abs(beta).sum()) * moments.resolution)
        est, se = _mean_se(vals, replicates)
        se = math.hypot(se, extra)
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


def attach_exact_means(fns, a: DirichletParams) -> tuple:
    """Attach E h(Z) to a battery with no Monte Carlo anywhere.

    attach_mean serves every battery family exactly: monomials by their
    mixed moments, waves and bumps by nested Gauss rules to about 1e-14,
    far below the 1e-12 resolution of a float stationary table.  A family
    it could only estimate by Monte Carlo is refused."""
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


def dirichlet_reference(a: DirichletParams, rng, size: int = 10**7) -> np.ndarray:
    """A large cloud of Dir(a) free coordinates, float32, drawn from rng."""
    g = as_generator(rng)
    out = np.empty((size, a.dim - 1), dtype=np.float32)
    done = 0
    while done < size:
        b = min(10**6, size - done)
        out[done : done + b] = dirichlet_sample(a, g, size=b)
        done += b
    return out


def convex_probe_k3(
    sample,
    a: DirichletParams,
    n_probes: int,
    rng,
    reference_size: int = 10**7,
) -> ProbeEstimate:
    """Probe random half-planes and axis boxes for the largest
    probability discrepancy against a reference cloud drawn from rng.

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
# explicit tables stop here: their group law enumerates every slot
# arrangement of every offspring multiset
_SMALL_N = 8
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
        comb = np.array(
            [[math.comb(n, k) for k in range(N + 1)] for n in range(N + 1)], dtype=np.float64
        )
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


def _group_law(model: ChainModel, states):
    """G(x) = the rows G[x, m] = P(M = m | x) for a block of type counts x:
    the law of the type-group offspring totals M over the composition
    grid, closed form for Moran and Dirichlet-multinomial and enumerated
    for an explicit table."""
    N, K, S = model.N, model.K, len(states)
    full = np.column_stack([states, N - states.sum(axis=1)])
    if model.kind == KIND_DIRICHLET_MULTINOMIAL:
        # the group totals of a DM(N; phi, ..., phi) offspring vector are
        # DM(N; phi x_1, ..., phi x_K), and a type with no parents has no
        # children; lr[x, m] is the log of the rising factorial (phi x)^(m)
        phi = float(model.offspring.phi)
        lgfact = _log_factorials(N)
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
    if model.kind == KIND_MORAN:
        # a uniform ordered pair of distinct parents (reproducer of type a,
        # dier of type b) gives M = x + e_a - e_b with probability
        # x_a (x_b - [a = b]) / (N (N - 1)), so M = x whenever a = b
        step = np.eye(K, dtype=np.int64)
        shifts = (step[:, None, :] - step[None, :, :]).reshape(K * K, K)

        def groups(x):
            w = x[:, :, None] * (x[:, None, :] - step)
            return x[:, None, :] + shifts, w.reshape(len(x), K * K) / (N * (N - 1))

    else:
        # every distinct slot arrangement of every offspring multiset, all
        # equally likely within it, read off at the group edges of x
        cums, weights = [], []
        for v, p in enumerate_law(model.offspring):
            arr = np.array(sorted(set(itertools.permutations(v))), dtype=np.int64)
            cums.append(np.column_stack([np.zeros(len(arr), dtype=np.int64), arr.cumsum(axis=1)]))
            weights.append(np.full(len(arr), float(p) / len(arr)))
        cum = np.concatenate(cums)
        weight = np.concatenate(weights)

        def groups(x):
            edges = np.column_stack([np.zeros(len(x), dtype=np.int64), x.cumsum(axis=1)])
            return np.diff(cum[:, edges], axis=2).transpose(1, 0, 2), weight

    def scatter(x):
        m, w = groups(x)
        w = np.broadcast_to(w, m.shape[:2])
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


def _dirichlet_start(model: ChainModel, states):
    """The start row of a Wright-Fisher solve: the Dirichlet-multinomial
    DM(N; s m) on `states`, the count law of the Dirichlet approximation,
    with the exact stationary mean m and the total s that matches the
    exact total variance.

    Both come from the degree-2 case of `exact_moments`, solved over all
    K types: m = m Pm with total one, and since W' = X'/N with
    X' ~ Mult(N, W Pm), the second moments M = E[W W^T] solve
    M = a Pm^T M Pm + diag(m) / N with a = 1 - 1/N.  M is the series
    sum_k a^k (Pm^T)^k diag(m) Pm^k / N, summed by doubling (Smith's
    method): O(K^3) per step and about log2(80 N) steps.  Under
    DM(N; s m), Var W_i = m_i (1 - m_i) (s + N) / (N (s + 1)), so with
    T = 1 - sum m_i^2 and H = 1 - trace M the total variance T - H gives
    s = N H / (N (T - H) - T).  That s is finite and positive only when
    the stationary variance exceeds the multinomial's (at K=2 whenever
    p12 + p21 != 1, since the mutation eigenvalue enters squared).
    Otherwise the start is the uniform row: at N = 1 (0/0) and for
    identical mutation rows (the law is multinomial).  The rising
    factorials of the pmf are sums of logs, exact for any weights."""
    N, K, S = model.N, model.K, len(states)
    Pm = model.mutation.array()
    stay = Pm.T - np.eye(K)
    stay[-1] = 1.0
    mean = np.linalg.solve(stay, np.eye(K)[-1])
    second = np.diag(mean / N)
    A = math.sqrt(1.0 - 1.0 / N) * Pm
    for _ in range(64):  # 2^64 terms; the loop ends after about log2(80 N)
        step = A.T @ second @ A
        second += step
        if step.trace() <= 1e-17 * second.trace():
            break
        A = A @ A
    T, H = 1.0 - mean @ mean, 1.0 - second.trace()
    den = N * (T - H) - T
    s = N * H / den if den > 0.0 else math.inf
    if not (math.isfinite(s) and s > 0.0 and (mean > 0.0).all()):
        return np.full(S, 1.0 / S)
    t = np.arange(N)
    # log (a)^(k), the log rising factorial, for k = 0..N per type
    rise = np.zeros((K, N + 1))
    np.cumsum(np.log(s * mean[:, None] + t), axis=1, out=rise[:, 1:])
    lgfact = _log_factorials(N)
    full = np.column_stack([states, N - states.sum(axis=1)])
    logp = (rise - lgfact)[np.arange(K), full].sum(axis=1)
    logp += lgfact[N] - np.log(s + t).sum()
    x0 = np.exp(logp)
    return x0 / x0.sum()


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
    rates 1/(N(N-1)).  Explicit tables are gated at N <= 8, since their
    G enumerates every slot arrangement, and Cannings rows with more than
    three types are refused: the kernel's cube holds (N+1)^(K-1) cells
    per row.  State counts beyond the state cap of 6e3 are refused, for
    every kind, rather than approximated.
    """
    N, K = model.N, model.K
    check_irreducible(model.mutation)
    if model.kind != KIND_WRIGHT_FISHER and K > 3:
        raise MetricsError(f"exact law for kind {model.kind!r} needs K <= 3, got K={K}")
    S = math.comb(N + K - 1, K - 1)
    if S > _STATE_CAP:
        raise MetricsError(f"{S} states exceeds the state cap of {_STATE_CAP}")
    states = _state_grid(N, K)
    if model.kind == KIND_WRIGHT_FISHER:
        x0 = _dirichlet_start(model, states)
        pi, resolution, iterations = _krylov_stationary(_wf_operator(model, states), x0)
        return StationaryTable(states, pi, N, model.kind, resolution, "krylov", iterations)
    if model.kind == KIND_EXPLICIT and N > _SMALL_N:
        raise MetricsError(f"exact law for kind {model.kind!r} needs N <= {_SMALL_N}")
    pi, resolution = _solve_stationary(_cannings_matrix(model, states))
    return StationaryTable(states, pi, N, model.kind, resolution)


# ---------------------------------------------------------------------------
# exact stationary moments of Wright-Fisher chains


# degree of the exact moments that Wright-Fisher certifications sample
# against.  Over 160 runs of 1024 draws at K=2 and 3, N in [50, 200] and a
# in [2, 4], the median worst stderr fell from 0.0143 with no controls to
# 0.0061, 0.0045, 0.0036, 0.0025, 0.0019 and 0.0012 at degrees 3 to 8,
# while the moments and controls added 1.3, 1.5, 1.8, 2.2, 2.6 and 3.2 ms
# to a K=3 run (0.8 to 1.0 ms at K=2).  Degree 6 is the highest that adds
# under 5% to a run of about 50 ms.
MOMENT_DEGREE = 6


def _exponents(d, degree):
    """The exponent vectors c in N^d with |c| <= degree, by degree and then
    lexicographically (the battery's monomial order); row 0 is c = 0."""
    cs = [c for c in itertools.product(range(degree + 1), repeat=d) if sum(c) <= degree]
    return np.array(sorted(cs, key=lambda c: (sum(c), c)), dtype=np.int64).reshape(-1, d)


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


def _projection(a: DirichletParams, degree: int):
    """The inverse of the Gram matrix E [1, c][1, c]^T of the monomials of
    degree 0..degree under Dir(a), the nodes z of the whole simplex's
    Gauss rule, and the weighted monomials at them, so that
    basis @ h(z) = E h [1, c].  A bump's rule is not windowed here, unlike
    attach_mean's: its weights moved the controlled stderr by under 3e-5
    relative.

    The Gram matrix takes exact Dirichlet moments (`_dirichlet_moments`).
    It is scaled to unit diagonal and inverted with relative eigenvalues
    below 1e-12 cut, since the monomials of a narrow law are nearly
    dependent and any fixed beta keeps the control-variate mean unbiased."""
    exps = _exponents(a.dim - 1, degree)
    gram = _dirichlet_moments(a, exps[:, None, :] + exps[None, :, :])
    scale = np.outer(*[np.sqrt(np.diagonal(gram))] * 2)
    lam, vec = np.linalg.eigh(gram / scale)
    keep = lam > 1e-12 * lam[-1]
    inv = (vec[:, keep] / lam[keep]) @ vec[:, keep].T / scale
    z, wt = _dirichlet_rule(a)
    basis = _monomials(z, exps).T * wt
    return inv, z, basis


@dataclass(frozen=True)
class ExactMoments:
    """Stationary moments E[W^c] of a chain, for every exponent vector c
    over the K-1 free coordinates with 1 <= |c| <= degree.

    exponents lists the c by degree and then lexicographically, and
    values the moments in the same order.  resolution bounds the float
    error of every value, as a StationaryTable's does.  `projected` adds
    the law whose L2 projection the controls of smooth_gap take."""

    exponents: np.ndarray
    values: np.ndarray
    degree: int
    resolution: float
    law: DirichletParams | None = None
    projection: tuple | None = field(default=None, repr=False, compare=False)

    def moment(self, c) -> float:
        """E[W^c] for one exponent vector c."""
        rows = [tuple(e) for e in self.exponents.tolist()]
        c = tuple(int(v) for v in c)
        if c not in rows:
            raise MetricsError(f"no exact moment for exponents {c}")
        return float(self.values[rows.index(c)])

    def monomials(self, w) -> np.ndarray:
        """c(w) for rows w: one column per exponent vector."""
        return _monomials(w, self.exponents)

    def projected(self, a: DirichletParams) -> ExactMoments:
        """These moments with the L2(Dir(a)) projection onto span{1, c}
        built once (`_projection`), for the weights of any h."""
        return replace(self, law=a, projection=_projection(a, self.degree))

    def weights(self, h: TestFunction) -> np.ndarray:
        """beta_h: the weights on the monomials c of the projection of h
        under the projected law, from h at the nodes of the Gauss rule of
        `_dirichlet_expect`."""
        if self.projection is None:
            raise MetricsError("project the moments on a law before weighting h")
        inv, z, basis = self.projection
        return (inv @ (basis @ np.asarray(h.fn(z), dtype=np.float64)))[1:]


def exact_moments(model: ChainModel, degree: int) -> ExactMoments:
    """Stationary E[W^c], 1 <= |c| <= degree, of a Wright-Fisher chain
    with any mutation matrix P, from one small linear solve.

    Given W = w the next counts are X' ~ Mult(N, q(w)) with q(w) = w P,
    affine in the free coordinates.  The multinomial falling moments
    E prod_j (X'_j)_(i_j) = (N)_|i| q^i and x^c = sum_i S(c, i) (x)_i, with
    S the Stirling numbers of the second kind, give

        E[W'^c | w] = N^-|c| sum_i prod_j S(c_j, i_j) (N)_|i| q(w)^i,

    a polynomial of degree |c| in w.  Stationarity is then mu = A mu over
    the monomials of degree <= degree (mu_0 = 1), a system triangular by
    degree, solved in float64 for all degrees at once.  The resolution
    is 16 m eps |(I - A)^-1|_inf |A|_inf over the m unknowns, at least
    1e-13: the float error that the rounding of A and of the solve can
    leave, as the condition number carries it."""
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
    # with w_K = 1 - sum_k w_k; w_k moves c to c + e_k, never past the degree
    P = model.mutation.array()
    b, G = P[-1, :d], P[:d, :d] - P[-1, :d]
    Q = b[:, None, None] * np.eye(m)
    low = np.flatnonzero(deg < degree)
    for k in range(d):
        Q[:, index(keys[low] + radix[k]), low] += G[k][:, None]
    # row i of powers: the coefficients of q(w)^c_i, one factor at a time
    first = np.argmax(exps > 0, axis=1)
    parent = index(keys - radix[first])
    powers = np.zeros((m, m))
    powers[0, 0] = 1.0
    for i in range(1, m):
        powers[i] = Q[first[i]] @ powers[parent[i]]
    stirling = np.zeros((degree + 1, degree + 1))
    for c in range(degree + 1):
        stirling[c, : c + 1] = _stirling2_row(c)
    falling = np.concatenate([[1.0], np.cumprod(1.0 - np.arange(degree) / N)])
    T = np.prod(stirling[exps[:, None, :], exps[None, :, :]], axis=-1)
    T *= falling[deg] * float(N) ** np.minimum(deg[None, :] - deg[:, None], 0)
    A = T @ powers
    try:
        inv = np.linalg.inv(np.eye(m - 1) - A[1:, 1:])
    except np.linalg.LinAlgError:
        raise MetricsError("the stationary moment system is singular") from None
    values = inv @ A[1:, 0]
    norm = np.abs(inv).sum(axis=1).max() * np.abs(A).sum(axis=1).max()
    resolution = max(1e-13, 16 * m * np.finfo(float).eps * float(norm))
    if not (np.isfinite(values).all() and math.isfinite(resolution)):
        raise MetricsError("the stationary moment system is singular")
    return ExactMoments(exps[1:], values, degree, resolution)


def moment_z_max(sample, moments: ExactMoments) -> float:
    """Largest |z| of the sample means of W^c, 1 <= |c| <= 3 (the
    battery's monomials), against the exact stationary moments, in
    smooth_gap's stderr (iid rows or batch means over chains) combined
    with the moments' resolution.  A check of the sampler: exact draws
    keep it near the largest of that many standard normals."""
    rows, replicates = _rows(sample, moments.exponents.shape[1], None)
    keep = moments.exponents.sum(axis=1) <= 3
    z = 0.0
    for col, mu in zip(_monomials(rows, moments.exponents[keep]).T, moments.values[keep]):
        est, se = _mean_se(col, replicates)
        z = max(z, abs(est - mu) / math.hypot(se, moments.resolution))
    return z
