"""Dirichlet distribution fundamentals on the (K-1)-dimensional simplex.

A point of the closed simplex is stored by its first K-1 coordinates; the last
coordinate ``x_K = 1 - sum(x)`` is implicit.  The Dirichlet law ``Dir(a)`` with
``a = (a_1, ..., a_K)``, ``s = sum(a)`` has density

    Gamma(s) / prod Gamma(a_i) * prod x_i^(a_i - 1)

on the open simplex.  This module also carries the convex-set exponent
``theta = theta_wedge / (theta_wedge + theta_circ)`` with
``theta_wedge = min(1, min a_i)`` and ``theta_circ = sum (1 - min(1, a_i))``,
whose rate form ``theta / (3 + theta)`` prices convex-set distance bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

# Membership tolerance: chains feed exact rationals k/N, so this only guards
# float round-off.
BOUNDARY_TOL = 1e-12


class SimplexError(ValueError):
    """Raised for points or parameters that violate simplex constraints."""


@dataclass(frozen=True)
class SimplexPoint:
    """A point of the closed simplex, stored as its K-1 free coordinates.

    Attributes:
        coords: the first K-1 coordinates, each >= 0, summing to <= 1.
        dim: K, the number of categories (implicit last coordinate included).
    """

    coords: tuple
    dim: int = field(default=0)

    def __init__(self, coords: Sequence[float], dim: int | None = None):
        coords = tuple(float(c) for c in coords)
        if dim is None:
            dim = len(coords) + 1
        if dim != len(coords) + 1:
            raise SimplexError(f"dim {dim} inconsistent with {len(coords)} coordinates")
        if dim < 2:
            raise SimplexError("simplex dimension K must be >= 2")
        if any(c < 0.0 for c in coords):
            raise SimplexError(f"negative coordinate in {coords}")
        # the quantity `last` returns, so it never falls below -BOUNDARY_TOL
        if 1.0 - sum(coords) < -BOUNDARY_TOL:
            raise SimplexError(f"coordinates {coords} sum above 1")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "dim", dim)

    @property
    def last(self) -> float:
        """The implicit coordinate 1 - sum(coords); may be a tiny negative
        within the construction tolerance."""
        return 1.0 - sum(self.coords)

    def interior(self) -> bool:
        return all(c > 0.0 for c in self.coords) and self.last > 0.0


def _as_number(v):
    # Fractions and ints pass through so exact-arithmetic callers stay exact.
    if isinstance(v, (Fraction, int)):
        return v
    return float(v)


@dataclass(frozen=True)
class DirichletParams:
    """Dirichlet parameter vector with its derived convex-set exponents.

    Rational entries (int or Fraction) are kept exact, which downstream
    bound evaluation relies on; floats stay floats.
    """

    a: tuple

    def __init__(self, a: Sequence):
        a = tuple(_as_number(v) for v in a)
        if len(a) < 2:
            raise SimplexError("need at least two Dirichlet parameters")
        if any(v <= 0 for v in a):
            raise SimplexError(f"Dirichlet parameters must be positive, got {a}")
        object.__setattr__(self, "a", a)

    @property
    def dim(self) -> int:
        return len(self.a)

    @cached_property
    def s(self):
        return sum(self.a)

    @cached_property
    def theta_wedge(self):
        return min(1, min(self.a))

    @cached_property
    def theta_circ(self):
        return sum(1 - min(1, v) for v in self.a)

    @cached_property
    def theta(self):
        return self.theta_wedge / (self.theta_wedge + self.theta_circ)

    def floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.a])

    @cached_property
    def vertex_drift(self) -> tuple:
        """(max |a - s v|_1, max |a - s v|_2^2) over the vertices v of the
        simplex, in the first K-1 coordinates: the Stein drift a - s x at
        its worst corner."""
        af = self.floats()[:-1]
        d = len(af)
        dev = af - float(self.s) * np.vstack([np.zeros(d), np.eye(d)])
        return float(np.abs(dev).sum(axis=1).max()), float((dev * dev).sum(axis=1).max())


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable random stream.

    Identity is the pair (seed, path): the same pair always reproduces the
    same sequence, and distinct paths give statistically independent streams
    (counter-based Philox under a spawn-key tree).  Parallel work must split
    the stream, never share one generator.
    """

    seed: int
    path: tuple = ()

    @cached_property
    def gen(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))

    def child(self, i: int) -> "RngStream":
        return RngStream(self.seed, self.path + (int(i),))

    def split(self, n: int) -> list:
        return [self.child(i) for i in range(n)]


def as_generator(rng) -> np.random.Generator:
    """Accept either an RngStream or a bare numpy Generator."""
    if isinstance(rng, RngStream):
        return rng.gen
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def dirichlet_density(p: DirichletParams, x: SimplexPoint) -> float:
    """Density of Dir(a) at x, evaluated in log space.

    Boundary points are allowed only when every a_i >= 1 (the density extends
    continuously there); with some a_i < 1 the density is unbounded at the
    boundary and the point is rejected.
    """
    if x.dim != p.dim:
        raise SimplexError(f"point dimension {x.dim} != parameter dimension {p.dim}")
    a = p.floats()
    xs = np.array(x.coords + (x.last,))
    xs = np.clip(xs, 0.0, None)
    on_boundary = bool((xs == 0.0).any())
    if on_boundary and (a < 1.0).any():
        raise SimplexError("density unbounded at the boundary for parameters below 1")
    lognorm = math.lgamma(float(p.s)) - sum(math.lgamma(ai) for ai in a)
    val = 0.0
    for ai, xi in zip(a, xs):
        if xi == 0.0:
            if ai > 1.0:
                return 0.0
            # ai == 1: factor x^0 = 1 contributes nothing
            continue
        val += (ai - 1.0) * np.log(xi)
    return float(np.exp(lognorm + val))


def dirichlet_sample(p: DirichletParams, rng, size: int | None = None):
    """Sample from Dir(a) by normalizing independent gammas.

    Returns a SimplexPoint for size=None, else an array of shape (size, K-1).
    """
    g = as_generator(rng)
    a = p.floats()
    if size is None:
        y = g.standard_gamma(a)
        w = y / y.sum()
        return SimplexPoint(w[:-1])
    y = g.standard_gamma(a, size=(size, p.dim))
    w = y / y.sum(axis=1, keepdims=True)
    return w[:, :-1]


def _rising(v, k: int):
    """v (v+1) ... (v+k-1) in v's own arithmetic: a Fraction stays exact
    and a float stays a float (the empty product is the int 1)."""
    out = 1
    for t in range(k):
        out = out * (v + t)
    return out


def _falling(v, k: int):
    """v (v-1) ... (v-k+1), typed as _rising."""
    out = 1
    for t in range(k):
        out = out * (v - t)
    return out


def _stirling2_row(p: int):
    """S(p, k) for k = 0..p (partitions of p items into k blocks)."""
    row = [1] + [0] * p
    for _ in range(p):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, p + 1)]
    return row


def _power_moment(powers: Sequence[int], falling_moment):
    """E prod_t X_t^(p_t) from the falling moments E prod_t (X_t)_(k_t).

    Each power expands as x^p = sum_k S(p, k) (x)_k over the Stirling
    numbers of the second kind, so falling_moment(k) is called for every
    k with k_t <= p_t and a non-zero coefficient, and the sum keeps its
    arithmetic (exact for Fractions)."""
    rows = [_stirling2_row(p) for p in powers]
    total = 0
    for k in itertools.product(*(range(p + 1) for p in powers)):
        coef = 1
        for row, kt in zip(rows, k):
            coef *= row[kt]
        if coef:
            total += coef * falling_moment(k)
    return total


def dirichlet_mixed_moment(p: DirichletParams, exponents: Sequence[int]):
    """Exact mixed moment E[prod Z_i^(c_i)] = prod (a_i)^(c_i) / (s)^(|c|).

    (v)^(k) denotes the rising factorial v(v+1)...(v+k-1).  Exact when the
    parameters are rational; plain float arithmetic otherwise, taken as
    `_dirichlet_moments`' product of ratios when the factorials leave the
    float range.
    """
    c = tuple(int(e) for e in exponents)
    if len(c) != p.dim:
        raise SimplexError(f"{len(c)} exponents for dimension {p.dim}")
    if any(e < 0 for e in c):
        raise SimplexError("exponents must be non-negative")
    total = sum(c)
    if total == 0:
        return 1
    try:
        num = 1
        for ai, ci in zip(p.a, c):
            num = num * _rising(ai, ci)
        den = _rising(p.s, total)
        if isinstance(num, (int, Fraction)) and isinstance(den, (int, Fraction)):
            return Fraction(num) / Fraction(den)
        out = num / den
        if math.isfinite(den) and math.isfinite(out):
            return out
    except OverflowError:  # an exact int factor past the float range
        pass
    return float(_dirichlet_moments(p, [c])[0])


def _dirichlet_moments(p: DirichletParams, exps) -> np.ndarray:
    """E[prod Z_i^(c_i)] under Dir(p) in float64 for every row c of exps,
    the exponents of the leading k <= p.dim coordinates, as products of
    per-step ratios (a_i + t) / (s + c_1 + ... + c_(i-1) + t): each stays
    within the float range where the rising factorials of
    `dirichlet_mixed_moment` leave it."""
    exps = np.asarray(exps, dtype=np.int64)
    af, s = p.floats()[: exps.shape[-1]], float(p.s)
    off = s + np.cumsum(exps, axis=-1) - exps
    out = np.ones(exps.shape[:-1])
    for t in range(int(exps.max(initial=0))):
        out *= np.prod(np.where(t < exps, (af + t) / (off + t), 1.0), axis=-1)
    return out


# Gauss nodes per piece of every exact Dirichlet mean: the rule is exact for
# polynomials of degree 63 in each stick-breaking coordinate
_GAUSS_NODES = 32
# ratio of a graded piece's far end to its near end, measured from the 0 or
# 1 that a window end lies close to
_GRADING = 4.0
# a Beta factor whose variance is below this is taken as a point mass at its
# mean: for Lipschitz g the error is below L * 1e-17, under the rounding of
# the mean, where the Gauss rule would overflow or cancel (p + q near 1e154
# and beyond, or weights near the smallest subnormal)
_POINT_VARIANCE = 1e-34
# a window piece longer than this many spreads of its Beta factor is cut
# around the factor's mean, so that no Gauss rule straddles a narrow peak
_NARROW = 16.0


@lru_cache(maxsize=64)
def _beta_rule(p: float, q: float):
    """Nodes and probability weights of the Gauss rule for Beta(p, q) on
    [0, 1]: the eigenpairs of the Jacobi matrix of the monic orthogonal
    polynomials (Golub and Welsch, Math. Comp. 23, 1969)."""
    n = _GAUSS_NODES
    m = p + q
    k = np.arange(1, n, dtype=np.float64)
    t = 2.0 * k + m - 2.0
    # the Jacobi-polynomial recurrence mapped from [-1, 1] to [0, 1]
    diag = np.concatenate([[p / m], 0.5 + 0.5 * (p - q) * (m - 2.0) / (t * (t + 2.0))])
    k, t = k[1:], t[1:]
    off2 = k * (k + p - 1.0) * (k + q - 1.0) * (k + m - 2.0) / (t * t * (t + 1.0) * (t - 1.0))
    # the first term, the variance, has a removable 0/0 at p + q = 1
    off2 = np.concatenate([[p * q / (m * m * (m + 1.0))], off2])
    J = np.diag(diag) + np.diag(np.sqrt(off2), 1) + np.diag(np.sqrt(off2), -1)
    nodes, vecs = np.linalg.eigh(J)
    weights = vecs[0] ** 2
    # cached and shared: callers must not write into them
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _narrow_cuts(p, q, longest):
    """mu and mu +- sd 2^j (j >= 0) inside (0, 1) if the longest window
    piece is over _NARROW sd, else none.  Each piece between them is as
    long as its distance to mu, so 32 nodes resolve the peak at any width.
    mu and sd are those of Beta(max(p, 1), max(q, 1)): an exponent below 1
    leaves its singular end to the Jacobi weight and the grading."""
    P, Q = max(p, 1.0), max(q, 1.0)
    m = P + Q
    sd = math.sqrt(P * Q / (m * m * (m + 1.0)))
    if not longest > _NARROW * sd:
        return []
    steps = sd * 2.0 ** np.arange(math.ceil(math.log2(1.0 / sd)) + 1)
    cuts = P / m + np.concatenate([-steps, [0.0], steps])
    return list(cuts[(cuts > 0.0) & (cuts < 1.0)])


def _window_rule(p, q, lo, hi, cuts):
    """Row index, node and weight of every Gauss point for the integral of
    g(y) against the Beta(p, q) density over the window [lo[i], hi[i]] of
    each row i.

    Each window is split at the cuts inside it, and at _narrow_cuts when
    the factor is narrow; every piece with an end near 0 or 1 is graded
    geometrically towards it.  A piece that ends at 0 or 1 takes the
    density's factor there into its Gauss weight, so the rule stays exact
    at that end for any p, q > 0."""
    lo = np.clip(lo, 0.0, 1.0)
    hi = np.clip(hi, lo, 1.0)

    def split(cuts):
        cuts = np.clip(np.asarray(cuts, dtype=np.float64)[None, :], lo[:, None], hi[:, None])
        return np.sort(np.column_stack([lo, hi, cuts]), axis=1)

    base = split(cuts)
    narrow = _narrow_cuts(p, q, np.max(np.diff(base, axis=1), initial=0.0))
    if narrow:
        base = split(list(cuts) + narrow)
    u, v = base[:, :-1].ravel(), base[:, 1:].ravel()
    mid = 0.5 * (u + v)
    # enough levels that every graded piece is at most (_GRADING - 1) times
    # as long as its distance to the 0 or 1 beyond it
    gap = np.concatenate([u, 1.0 - v])
    half = np.concatenate([mid - u, mid - u])
    close = (gap > 0.0) & (gap < half)
    levels = 0
    if close.any():
        levels = int(np.ceil(np.log(np.max(half[close] / gap[close])) / np.log(_GRADING)))
    g = _GRADING ** np.arange(1, levels + 1)
    left = np.clip(u[:, None] * g, u[:, None], mid[:, None])
    right = np.clip(1.0 - (1.0 - v[:, None]) * g, mid[:, None], v[:, None])
    br = np.sort(np.column_stack([u, left, mid, right, v]), axis=1).reshape(len(lo), -1)
    u, v = br[:, :-1].ravel(), br[:, 1:].ravel()
    row = np.repeat(np.arange(len(lo)), br.shape[1] - 1)
    keep = v > u
    row, u, v = row[keep], u[keep], v[keep]
    x = np.empty((len(u), _GAUSS_NODES))
    w = np.empty_like(x)
    at0, at1 = u == 0.0, v == 1.0
    lbeta = math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    # a piece takes the Gauss rule of weight (y - u)^(P-1) (v - y)^(Q-1),
    # with P = p at 0 and Q = q at 1 and 1 elsewhere, times the rest of
    # the density
    for e0, e1 in itertools.product((False, True), repeat=2):
        sel = (at0 == e0) & (at1 == e1)
        P, Q = (p if e0 else 1.0), (q if e1 else 1.0)
        y, wy = _beta_rule(P, Q)
        du = (v - u)[sel, None]
        x[sel] = u[sel, None] + du * y
        if narrow:
            log_w = (
                (P + Q - 1.0) * np.log(du)
                + _log_density_rest(p, q, P, Q, x[sel])
                + math.lgamma(P) + math.lgamma(Q) - math.lgamma(P + Q)
            )
        else:
            log_w = (
                (P + Q - 1.0) * np.log(du)
                + (p - P) * np.log(x[sel])
                + (q - Q) * np.log1p(-x[sel])
                + math.lgamma(P) + math.lgamma(Q) - math.lgamma(P + Q)
                - lbeta
            )
        w[sel] = wy * np.exp(log_w)
    return np.repeat(row, _GAUSS_NODES), x.ravel(), w.ravel()


# B_2k / (2k (2k - 1)) for k = 1..7, the coefficients of Stirling's series
_STIRLING_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _stirling_rest(z: float) -> float:
    """lgamma(z) - (z - 1/2) log z + z - log(2 pi)/2; from z = 10 on by its
    series (next term below 1e-16), which does not cancel at large z."""
    if z < 10.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - 0.5 * math.log(2.0 * math.pi)
    return sum(c / z ** (2 * k + 1) for k, c in enumerate(_STIRLING_SERIES))


def _log_density_rest(p, q, P, Q, x):
    """(p - P) log x + (q - Q) log(1 - x) - log B(p, q) without the
    cancellation of lgamma at large p + q: the log density at the mean
    mu = p/m is (3 log m - log(2 pi p q))/2 plus Stirling remainders, and
    each node adds logs of x/mu and (1 - x)/(1 - mu), numbers near 1."""
    m = p + q
    at_mean = 0.5 * (3.0 * math.log(m) - math.log(2.0 * math.pi * p) - math.log(q))
    at_mean += _stirling_rest(m) - _stirling_rest(p) - _stirling_rest(q)
    at_mean -= (P - 1.0) * math.log(p / m) + (Q - 1.0) * math.log(q / m)
    d = x - p / m
    return at_mean + (p - P) * np.log1p(d * (m / p)) + (q - Q) * np.log1p(-d * (m / q))


def _dirichlet_expect(a: DirichletParams, fn, window=None) -> float:
    """E fn(Z) under Dir(a) by nested Gauss rules (`_dirichlet_rule`), or
    for K <= 3 the windowed E[fn(Z); lo_i <= Z_i <= hi_i] with window a
    (lo_i, hi_i) pair per free coordinate.  fn takes an (n, K-1) array of
    free coordinates."""
    z, wt = _dirichlet_rule(a, window)
    return float(wt @ np.asarray(fn(z), dtype=np.float64))


def _dirichlet_rule(a: DirichletParams, window=None):
    """The nodes z (n, K-1) and weights of `_dirichlet_expect`'s rule.

    In stick-breaking coordinates Z_j = (1 - Z_1 - ... - Z_(j-1)) Y_j with
    independent Y_j ~ Beta(a_j, a_(j+1) + ... + a_K), so the mean is a
    tensor product of one-dimensional Beta rules.  For K = 3 the rule of
    Z_1 is split where an end e of Z_2's window meets the mass 1 - Z_1
    left to it, since the inner integral has an algebraic kink there.
    A factor narrower than _POINT_VARIANCE is a point mass at its mean."""
    af = a.floats()
    K = len(af)
    rest = np.cumsum(af[::-1])[::-1]
    z = np.zeros((1, 0))
    left = np.ones(1)
    wt = np.ones(1)
    for j in range(K - 1):
        if not wt.all():
            # rows whose weight underflowed to zero add nothing; a narrow
            # law leaves most outer nodes so, and each would take the
            # next factor's whole rule
            keep = wt != 0.0
            z, left, wt = z[keep], left[keep], wt[keep]
        if not len(wt):  # a point mass fell outside the window
            z = np.zeros((0, K - 1))
            break
        p, q = af[j], rest[j + 1]
        m = p + q
        if (p / m) * (q / m) / (m + 1.0) <= _POINT_VARIANCE:
            row = np.arange(len(wt))
            y, wy = np.full(len(wt), p / m), np.ones(len(wt))
            if window is not None:
                lo, hi = window[j]
                zj = left * y
                keep = (lo <= zj) & (zj <= hi)
                row, y, wy = row[keep], y[keep], wy[keep]
        elif window is None:
            y, wy = _beta_rule(p, q)
            row = np.repeat(np.arange(len(wt)), len(y))
            y, wy = np.tile(y, len(wt)), np.tile(wy, len(wt))
        else:
            lo, hi = window[j]
            cuts = [1.0 - e for e in window[1]] if j == 0 and K == 3 else []
            row, y, wy = _window_rule(p, q, lo / left, hi / left, cuts)
        zj = left[row] * y
        z = np.column_stack([z[row], zj])
        left = left[row] - zj
        wt = wt[row] * wy
    return z, wt


def theta_exponent(p: DirichletParams):
    """The convex-set exponent theta and its rate theta/(3+theta)."""
    th = p.theta
    return th, th / (3 + th)
