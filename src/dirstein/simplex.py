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

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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


def dirichlet_mixed_moment(p: DirichletParams, exponents: Sequence[int]):
    """Exact mixed moment E[prod Z_i^(c_i)] = prod (a_i)^(c_i) / (s)^(|c|).

    (v)^(k) denotes the rising factorial v(v+1)...(v+k-1).  Exact when the
    parameters are rational; plain float arithmetic otherwise.
    """
    c = tuple(int(e) for e in exponents)
    if len(c) != p.dim:
        raise SimplexError(f"{len(c)} exponents for dimension {p.dim}")
    if any(e < 0 for e in c):
        raise SimplexError("exponents must be non-negative")
    total = sum(c)
    if total == 0:
        return 1
    num = 1
    for ai, ci in zip(p.a, c):
        num = num * _rising(ai, ci)
    den = _rising(p.s, total)
    if isinstance(num, (int, Fraction)) and isinstance(den, (int, Fraction)):
        return Fraction(num) / Fraction(den)
    return num / den


def theta_exponent(p: DirichletParams):
    """The convex-set exponent theta and its rate theta/(3+theta)."""
    th = p.theta
    return th, th / (3 + th)
