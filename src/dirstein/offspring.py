"""Exchangeable offspring laws V = (V_1, ..., V_N) with sum V_i = N.

The reproduction step of a neutral fixed-size population is described by an
exchangeable non-negative integer vector V summing to N, V_i being the number
of offspring of individual i.  Four families are supported:

* wright-fisher: V multinomial with N trials and uniform probabilities;
* moran: a uniform ordered pair (I, J) with V_I = 2, V_J = 0, all others 1;
* dirichlet-multinomial(phi): V multinomial with Dirichlet(phi, ..., phi)
  weights, a tunable heavy-reproduction family (phi small means heavy);
* explicit-table: a user-supplied law given per multiset of offspring counts,
  symmetrized over orderings on expansion.

The factorial moments

    alpha = E V1(V1-1)            beta  = E V1(V1-1)(V1-2)
    gamma = E V1(V1-1)V2(V2-1)    delta = E V1(V1-1)(V1-2)(V1-3)

drive every approximation bound downstream: alpha sets the pair-merger
timescale and beta/(alpha N) -> 0 is the classical condition for convergence
of the genealogy to the Kingman coalescent.  All four are computed in exact
rational arithmetic for every family.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

import numpy as np

from .simplex import _falling, _rising, as_generator

KIND_WRIGHT_FISHER = "wright-fisher"
KIND_MORAN = "moran"
KIND_DIRICHLET_MULTINOMIAL = "dirichlet-multinomial"
KIND_EXPLICIT = "explicit-table"

ENUMERATION_LIMIT = 8  # exact enumeration over multisets up to this N


class OffspringError(ValueError):
    pass


@dataclass(frozen=True)
class OffspringModel:
    """An exchangeable offspring-count law for a population of size N.

    Construct through the classmethods; `table` is only set for the
    explicit kind and maps sorted count tuples to exact probabilities.
    """

    N: int
    kind: str
    phi: Fraction | None = None
    table: tuple | None = None  # ((sorted_counts, Fraction prob), ...)

    def __post_init__(self):
        if self.N < 2:
            raise OffspringError("population size N must be >= 2")

    @classmethod
    def wright_fisher(cls, N: int) -> "OffspringModel":
        return cls(N=N, kind=KIND_WRIGHT_FISHER)

    @classmethod
    def moran(cls, N: int) -> "OffspringModel":
        return cls(N=N, kind=KIND_MORAN)

    @classmethod
    def dirichlet_multinomial(cls, N: int, phi) -> "OffspringModel":
        phi = Fraction(phi)
        if phi <= 0:
            raise OffspringError("phi must be positive")
        return cls(N=N, kind=KIND_DIRICHLET_MULTINOMIAL, phi=phi)

    @classmethod
    def explicit(cls, N: int, table: dict) -> "OffspringModel":
        """Explicit law over multisets of counts; probabilities are
        normalized exactly after a 1e-9 sanity check on their sum."""
        rows = []
        total = Fraction(0)
        for counts, prob in table.items():
            counts = tuple(sorted(int(c) for c in counts))
            if len(counts) != N:
                raise OffspringError(f"multiset {counts} does not have N={N} entries")
            if any(c < 0 for c in counts):
                raise OffspringError(f"negative count in {counts}")
            if sum(counts) != N:
                raise OffspringError(f"multiset {counts} does not sum to N={N}")
            prob = Fraction(prob)
            if prob < 0:
                raise OffspringError("negative probability")
            rows.append([counts, prob])
            total += prob
        if abs(float(total) - 1.0) > 1e-9:
            raise OffspringError(f"probabilities sum to {float(total)}, not 1")
        if not rows:
            raise OffspringError("empty table")
        merged: dict = {}
        for counts, prob in rows:
            merged[counts] = merged.get(counts, Fraction(0)) + prob / total
        ones = tuple([1] * N)
        if merged.get(ones, Fraction(0)) == 1:
            raise OffspringError("degenerate law: V = (1,...,1) almost surely")
        return cls(N=N, kind=KIND_EXPLICIT, table=tuple(sorted(merged.items())))

    @classmethod
    def from_file(cls, path) -> "OffspringModel":
        """Load an explicit table: lines 'multiset: v1,...,vN ; prob: p'."""
        table = {}
        N = None
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    left, right = line.split(";", 1)
                    counts = tuple(
                        int(t) for t in left.split(":", 1)[1].replace(" ", "").split(",")
                    )
                    prob = Fraction(right.split(":", 1)[1].strip())
                except (ValueError, IndexError, ZeroDivisionError) as exc:
                    raise OffspringError(f"{path}:{lineno}: cannot parse {line!r}") from exc
                if N is None:
                    N = len(counts)
                key = tuple(sorted(counts))
                table[key] = table.get(key, Fraction(0)) + prob
        if N is None:
            raise OffspringError(f"{path}: no table rows")
        return cls.explicit(N, table)


@dataclass(frozen=True)
class OffspringMoments:
    """Factorial moments of a single offspring law, exact rationals."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction


def enumerate_law(m: OffspringModel):
    """Yield (sorted counts multiset, exact probability) pairs.

    Only feasible for N <= ENUMERATION_LIMIT except for the moran and
    explicit kinds, which are always small.
    """
    N = m.N
    if m.kind == KIND_MORAN:
        counts = tuple(sorted([2, 0] + [1] * (N - 2)))
        yield counts, Fraction(1)
        return
    if m.kind == KIND_EXPLICIT:
        yield from m.table
        return
    if N > ENUMERATION_LIMIT:
        raise OffspringError(f"enumeration infeasible for N={N} > {ENUMERATION_LIMIT}")
    for part in _partitions_into(N, N):
        counts = tuple(sorted(part + [0] * (N - len(part))))
        orderings = _orderings(counts)
        if m.kind == KIND_WRIGHT_FISHER:
            per = Fraction(factorial(N), int(np.prod([factorial(c) for c in counts], dtype=object)))
            per = per * Fraction(1, N**N)
        elif m.kind == KIND_DIRICHLET_MULTINOMIAL:
            per = Fraction(factorial(N), int(np.prod([factorial(c) for c in counts], dtype=object)))
            num = Fraction(1)
            for c in counts:
                num *= _rising(m.phi, c)
            per = per * num / _rising(N * m.phi, N)
        else:
            raise OffspringError(f"unknown kind {m.kind}")
        yield counts, per * orderings


def _partitions_into(n, maxpart):
    """Partitions of n with parts <= maxpart (list of parts, descending)."""
    if n == 0:
        yield []
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in _partitions_into(n - first, first):
            yield [first] + rest


def _orderings(counts) -> int:
    """Number of distinct orderings of a count multiset."""
    n = len(counts)
    denom = 1
    for _, grp in itertools.groupby(sorted(counts)):
        denom *= factorial(len(list(grp)))
    return factorial(n) // denom


def _distinct_sum(left, terms, t=0):
    """Sum over ordered tuples of distinct coordinates, from position t on,
    of prod_t terms[t][j] for the count class j of each coordinate.  left[j]
    coordinates of class j are still free, so picking class j can be done
    in left[j] ways."""
    if t == len(terms):
        return 1
    s = 0
    for j, c in enumerate(left):
        if c and terms[t][j]:
            left[j] = c - 1
            s += c * terms[t][j] * _distinct_sum(left, terms, t + 1)
            left[j] = c
    return s


def _distinct_moment(m: OffspringModel, fn, orders) -> Fraction:
    """Exact E[prod_t fn(V_t, k_t)] over r = len(orders) distinct
    coordinates, symmetrized over position assignments.

    Coordinates with equal counts give equal terms, so each multiset is
    summed over its c classes of equal counts, not over its coordinates:
    at most c^r terms instead of N!/(N-r)!."""
    total = Fraction(0)
    norm = _falling(Fraction(m.N), len(orders))
    for counts, prob in enumerate_law(m):
        mult = Counter(counts)
        terms = [[fn(v, k) for v in mult] for k in orders]
        total += prob * Fraction(_distinct_sum(list(mult.values()), terms)) / norm
    return total


def ordered_moment(m: OffspringModel, powers: Sequence[int]) -> Fraction:
    """Exact E[V_1^{p_1} ... V_r^{p_r}] over r distinct coordinates.

    Symmetrized over position assignments, so the result is well defined for
    any exchangeable law given per multiset.
    """
    powers = tuple(int(p) for p in powers)
    if len(powers) > m.N:
        raise OffspringError(f"{len(powers)} distinct coordinates exceed N={m.N}")
    return _distinct_moment(m, pow, powers)


def mc_ordered_moment(m: OffspringModel, powers: Sequence[int], rng, samples: int):
    """Monte-Carlo estimate and stderr of the same ordered moment.

    Exchangeability makes the first r coordinates an unbiased choice."""
    g = as_generator(rng)
    powers = tuple(int(p) for p in powers)
    r = len(powers)
    if r > m.N:
        raise OffspringError(f"{r} distinct coordinates exceed N={m.N}")
    block = 100_000
    out = np.empty(samples)
    done = 0
    while done < samples:
        b = min(block, samples - done)
        V = sample_offspring(m, g, size=b).astype(np.float64)
        vals = np.ones(b)
        for t in range(r):
            vals *= V[:, t] ** powers[t]
        out[done : done + b] = vals
        done += b
    return out.mean(), out.std(ddof=1) / np.sqrt(samples)


def moments(m: OffspringModel) -> OffspringMoments:
    """Exact factorial moments alpha, beta, gamma, delta of the law."""
    N = m.N
    if m.kind == KIND_WRIGHT_FISHER:
        alpha = Fraction(N - 1, N)
        beta = Fraction((N - 1) * (N - 2), N**2)
        gamma = Fraction((N - 1) * (N - 2) * (N - 3), N**3)
        delta = gamma
    elif m.kind == KIND_MORAN:
        alpha = Fraction(2, N)
        beta = gamma = delta = Fraction(0)
    elif m.kind == KIND_DIRICHLET_MULTINOMIAL:
        phi, Np = m.phi, N * m.phi
        alpha = _falling(Fraction(N), 2) * _rising(phi, 2) / _rising(Np, 2)
        beta = _falling(Fraction(N), 3) * _rising(phi, 3) / _rising(Np, 3)
        gamma = _falling(Fraction(N), 4) * _rising(phi, 2) ** 2 / _rising(Np, 4)
        delta = _falling(Fraction(N), 4) * _rising(phi, 4) / _rising(Np, 4)
    elif m.kind == KIND_EXPLICIT:
        alpha, beta, gamma, delta = (
            _distinct_moment(m, _falling, orders)
            for orders in ((2,), (3,), (2, 2), (4,))
        )
    else:
        raise OffspringError(f"unknown kind {m.kind}")
    if alpha == 0:
        raise OffspringError("degenerate law: alpha = 0, no pair mergers ever")
    return OffspringMoments(alpha, beta, gamma, delta)


# The ten product-moment identities expressible through (alpha, beta, gamma,
# delta, N).  Each entry: (label, coordinate powers, closed form).

def _identity_rows(N: int, mom: OffspringMoments):
    a, b, g, d = mom.alpha, mom.beta, mom.gamma, mom.delta
    N = Fraction(N)
    return [
        ("E V1^2", (2,), 1 + a),
        ("E V1V2", (1, 1), 1 - a / (N - 1)),
        ("E V1^3", (3,), 1 + 3 * a + b),
        (
            "E V1V2V3",
            (1, 1, 1),
            1 - 3 * a / (N - 1) + 2 * b / ((N - 1) * (N - 2)) if N > 2 else None,
        ),
        ("E V1^2V2", (2, 1), 1 + a * (N - 3) / (N - 1) - b / (N - 1)),
        ("E V1^2V2^2", (2, 2), 1 + a * (2 * N - 5) / (N - 1) - 2 * b / (N - 1) + g),
        ("E V1^4", (4,), 1 + 7 * a + 6 * b + d),
        (
            "E V1V2V3V4",
            (1, 1, 1, 1),
            1
            - 6 * a / (N - 1)
            + 8 * b / ((N - 1) * (N - 2))
            + 3 * g / ((N - 2) * (N - 3))
            - 3 * d / ((N - 1) * (N - 2) * (N - 3))
            if N > 3
            else None,
        ),
        (
            "E V1^2V2V3",
            (2, 1, 1),
            1
            + a * (N - 6) / (N - 1)
            - b * (2 * N - 8) / ((N - 1) * (N - 2))
            - g / (N - 2)
            + d / ((N - 1) * (N - 2))
            if N > 2
            else None,
        ),
        (
            "E V1^3V2",
            (3, 1),
            1 + a * (3 * N - 7) / (N - 1) + b * (N - 6) / (N - 1) - d / (N - 1),
        ),
    ]


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    lhs: object
    rhs: object
    residual: float
    mode: str  # "exact" or "mc"
    stderr: float = 0.0
    skipped: bool = False


def verify_moment_identities(
    m: OffspringModel, rng=None, mc_samples: int = 1_000_000
) -> list:
    """Check the ten mixed-moment identities of the offspring law.

    The left side is an ordered product moment over distinct coordinates,
    the right side its closed form in (alpha, beta, gamma, delta, N).
    Enumeration gives exact rational residuals for small N (or the moran and
    explicit kinds at any N); beyond that a Monte-Carlo left side is used and
    the stderr is reported.  Identities needing more distinct coordinates
    than N are flagged as skipped.
    """
    mom = moments(m)
    exact = (
        m.kind in (KIND_MORAN, KIND_EXPLICIT) or m.N <= ENUMERATION_LIMIT
    )
    out = []
    for name, powers, rhs in _identity_rows(m.N, mom):
        if len(powers) > m.N or rhs is None:
            out.append(IdentityCheck(name, None, None, float("nan"), "skipped", skipped=True))
            continue
        if exact:
            lhs = ordered_moment(m, powers)
            out.append(
                IdentityCheck(name, lhs, rhs, abs(float(lhs - rhs)), "exact")
            )
        else:
            if rng is None:
                raise OffspringError("MC identity check needs an rng")
            est, se = mc_ordered_moment(m, powers, rng, mc_samples)
            out.append(
                IdentityCheck(name, est, rhs, abs(est - float(rhs)), "mc", stderr=se)
            )
    return out


def sample_offspring(m: OffspringModel, rng, size: int | None = None):
    """Draw offspring vectors; shape (N,) or (size, N).

    Each vector is exchangeable, with every ordering of its multiset
    equally likely: the forward chain step gives each type's parents
    consecutive coordinates of V and relies on this."""
    g = as_generator(rng)
    one = size is None
    S = 1 if one else int(size)
    N = m.N
    if m.kind == KIND_WRIGHT_FISHER:
        V = g.multinomial(N, np.full(N, 1.0 / N), size=S)
    elif m.kind == KIND_MORAN:
        I = g.integers(0, N, size=S)
        J = (I + 1 + g.integers(0, N - 1, size=S)) % N
        V = np.ones((S, N), dtype=np.int64)
        V[np.arange(S), I] = 2
        V[np.arange(S), J] = 0
    elif m.kind == KIND_DIRICHLET_MULTINOMIAL:
        w = g.standard_gamma(float(m.phi), size=(S, N))
        w /= w.sum(axis=1, keepdims=True)
        V = g.multinomial(N, w)
    elif m.kind == KIND_EXPLICIT:
        keys = np.array([k for k, _ in m.table], dtype=np.int64)
        probs = np.array([float(p) for _, p in m.table])
        probs = probs / probs.sum()
        idx = g.choice(len(keys), size=S, p=probs)
        # one independent shuffle per row keeps every ordering equally likely
        V = g.permuted(keys[idx], axis=1)
    else:
        raise OffspringError(f"unknown kind {m.kind}")
    return V[0] if one else V


def aggregate_moments(m: OffspringModel, x: int):
    """Conditional moments of M = V_1 + ... + V_x, the offspring total of a
    fixed set of x parents.

    Closed forms through the mixed V moments; returns exact rationals
    (E M, E M^2, E M^3, E M^4).  At x = 0 all are 0; at x = N the total is
    deterministically N.
    """
    if not 0 <= x <= m.N:
        raise OffspringError(f"x={x} out of range 0..{m.N}")
    mom = moments(m)
    rows = {name: (powers, rhs) for name, powers, rhs in _identity_rows(m.N, mom)}
    x = Fraction(x)

    def mm(name):
        rhs = rows[name][1]
        if rhs is None:
            raise OffspringError(f"{name} undefined for N={m.N}")
        return rhs

    em1 = x
    em2 = x * mm("E V1^2") + _falling(x, 2) * mm("E V1V2")
    em3 = (
        x * mm("E V1^3")
        + 3 * _falling(x, 2) * mm("E V1^2V2")
        + (_falling(x, 3) * mm("E V1V2V3") if x >= 3 else Fraction(0))
    )
    em4 = (
        x * mm("E V1^4")
        + 4 * _falling(x, 2) * mm("E V1^3V2")
        + 3 * _falling(x, 2) * mm("E V1^2V2^2")
        + (6 * _falling(x, 3) * mm("E V1^2V2V3") if x >= 3 else Fraction(0))
        + (_falling(x, 4) * mm("E V1V2V3V4") if x >= 4 else Fraction(0))
    )
    return em1, em2, em3, em4


def mohle_diagnostics(m: OffspringModel):
    """The ratios (alpha/N, beta/(alpha N), gamma/(alpha N)).

    Small values place the genealogy in the Kingman-coalescent domain: pair
    mergers dominate and triple mergers vanish on the coalescent timescale.
    """
    mom = moments(m)
    return (
        float(mom.alpha / m.N),
        float(mom.beta / (mom.alpha * m.N)),
        float(mom.gamma / (mom.alpha * m.N)),
    )
